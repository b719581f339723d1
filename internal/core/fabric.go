package core

import (
	"fmt"
	"math/bits"

	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/power"
	"powerpunch/internal/topo"
)

// TargetedRouter computes the paper's targeted router for a packet at
// cur destined to dst with a k-hop punch: the router k hops ahead on
// the routed path, or the destination if it is closer. It returns
// mesh.Invalid when cur == dst (no punch needed).
func TargetedRouter(rf *topo.RoutingFunction, cur, dst mesh.NodeID, k int) mesh.NodeID {
	if cur == dst {
		return mesh.Invalid
	}
	return topo.Ahead(rf, cur, dst, k)
}

// FabricStats counts punch-fabric activity.
type FabricStats struct {
	SourceEmissions int64 // punches asserted by resident packets / NIs
	RelayedTargets  int64 // target relays across links
	ChannelCycles   int64 // (node, direction) channel-assertion cycles
	StrictDrops     int64 // source emissions deferred by strict arbitration
}

// Fabric is the punch-signal network for one fabric. It is driven by the
// simulator's cycle loop:
//
//	fabric.EmitSource / EmitLocal  (during the cycle, level semantics)
//	fabric.Step()                  (once per cycle, after all emissions)
//	fabric.Hold(node)              (read by the PG controllers)
//
// Signals written in cycle t reach the next router's controller in cycle
// t+1 (one link per cycle); relay through a controller is combinational
// (paper Section 6.6) and adds no extra latency.
type Fabric struct {
	rf   *topo.RoutingFunction
	t    *topo.Topology
	hops int
	// strict limits each router to one newly-generated punch per outgoing
	// direction per cycle, matching the single-signal-per-emitter model
	// Table 1 encodes. Relays are never dropped (merging is lossless).
	strict bool
	acct   *power.Accountant

	// inbox[n]: targets whose punch arrived at n this cycle.
	inbox [][]mesh.NodeID
	// localHold[n]: NI asserted an injection-node punch at n this cycle.
	localHold []bool
	// pending[n]: targets asserted at n this cycle (sources + local).
	pending [][]mesh.NodeID
	// outbox[n][d]: targets leaving n toward direction d this cycle.
	outbox [][mesh.NumLinkDirs][]mesh.NodeID
	// hold[n]: result of Step — n must stay/awake this cycle.
	hold []bool
	// strictUsed[n][d]: a source emission already used channel (n,d).
	strictUsed [][mesh.NumLinkDirs]bool

	// verify: check every channel's merged set against its Table-1 code
	// book (strict mode only; panics on violation). Code books are
	// built lazily per channel.
	verify    bool
	codebooks map[int]map[string]bool

	// faultDropRelays is a deliberate defect for invariant-engine tests;
	// see SetFaultDropRelays.
	faultDropRelays bool

	// Activity tracking for the network's active-set scheduler: emitted
	// is set by any Emit*/Hold* call since the last Step, inboxAny when
	// the last Step delivered targets into an inbox, and heldList is the
	// set of nodes the last Step computed a hold for. The fabric needs
	// stepping only while any of the three is live (NeedsStep); skipping
	// Step otherwise is safe because all per-cycle state (pending,
	// localHold, outbox, hold) is provably empty/false then.
	emitted  bool
	inboxAny bool
	heldList []mesh.NodeID

	// live is the bitset of nodes the next Step visits: those with a
	// pending target, a local hold or an inbound target. Step swaps it
	// into stepping and walks that in ascending order.
	live, stepping []uint64

	// bus, when non-nil, receives punch emit/local/merge/arrive/hold
	// events.
	bus *obs.Bus

	stats FabricStats
}

// NewFabric returns a punch fabric routed by rf with the given
// hop-count slack (paper default 3). acct may be nil to skip energy
// accounting.
func NewFabric(rf *topo.RoutingFunction, hops int, strict bool, acct *power.Accountant) *Fabric {
	if hops < 1 {
		panic(fmt.Sprintf("core: punch hops must be >= 1, got %d", hops))
	}
	n := rf.Topology().NumNodes()
	f := &Fabric{
		rf:         rf,
		t:          rf.Topology(),
		hops:       hops,
		strict:     strict,
		acct:       acct,
		inbox:      make([][]mesh.NodeID, n),
		localHold:  make([]bool, n),
		pending:    make([][]mesh.NodeID, n),
		outbox:     make([][mesh.NumLinkDirs][]mesh.NodeID, n),
		hold:       make([]bool, n),
		strictUsed: make([][mesh.NumLinkDirs]bool, n),
		live:       make([]uint64, (n+63)/64),
		stepping:   make([]uint64, (n+63)/64),
	}
	// The per-node target lists are recycled ([:0]) every cycle and
	// their occupancy is bounded by the local reach set, so a small
	// preallocation keeps Step allocation-free in the steady state:
	// without it, large fabrics pay a long tail of first-time-growth
	// appends (each node's lists must individually hit their high-water
	// mark before the hot path stops allocating).
	const punchListCap = 16
	for i := 0; i < n; i++ {
		// The inbox merges targets from all four directions, so it
		// carries a deeper high-water mark than the per-direction lists.
		f.inbox[i] = make([]mesh.NodeID, 0, 2*punchListCap)
		f.pending[i] = make([]mesh.NodeID, 0, punchListCap)
		for d := range f.outbox[i] {
			f.outbox[i][d] = make([]mesh.NodeID, 0, punchListCap)
		}
	}
	return f
}

// Hops returns the configured punch hop-count slack.
func (f *Fabric) Hops() int { return f.hops }

// SetBus attaches an observability bus; a nil bus (the default) keeps
// the fabric silent.
func (f *Fabric) SetBus(b *obs.Bus) { f.bus = b }

// SetVerifyEncodable makes the fabric assert, every cycle, that every
// channel's merged target set appears in that channel's Table-1 code
// book — the runtime proof that the behavioural simulation never needs
// a signal the proposed hardware could not encode. Only meaningful in
// strict mode (the code books assume one new signal per emitter per
// cycle); it panics on the first violation. Intended for tests.
func (f *Fabric) SetVerifyEncodable(v bool) {
	f.verify = v
	if v && f.codebooks == nil {
		f.codebooks = map[int]map[string]bool{}
	}
}

// codebook returns (building lazily) the set of encodable reduced
// target-set keys for channel (node, dirIdx).
func (f *Fabric) codebook(node int, di int) map[string]bool {
	key := node*mesh.NumLinkDirs + di
	if cb, ok := f.codebooks[key]; ok {
		return cb
	}
	cb := map[string]bool{}
	if enc := EncodeChannel(f.rf, mesh.NodeID(node), mesh.LinkDirections[di], f.hops); enc != nil {
		for _, c := range enc.Codes {
			cb[c.Set.Key()] = true
		}
	}
	f.codebooks[key] = cb
	return cb
}

// checkEncodable panics if the channel's merged set is outside its code
// book.
func (f *Fabric) checkEncodable(node, di int, targets []mesh.NodeID) {
	red := reduceTargets(f.rf, mesh.NodeID(node), targets)
	if !f.codebook(node, di)[red.Key()] {
		panic(fmt.Sprintf("core: channel %d->%v carries unencodable set %v (reduced %v)",
			node, mesh.LinkDirections[di], targets, red))
	}
}

// Stats returns a copy of the accumulated statistics.
func (f *Fabric) Stats() FabricStats { return f.stats }

// EmitSource asserts, for the current cycle, the punch of a packet
// resident at node cur and destined to dst: the signal targeting
// TargetedRouter(cur, dst, hops). Call once per resident packet head per
// cycle (level semantics: a stalled packet keeps punching). No-op when
// cur == dst.
func (f *Fabric) EmitSource(cur, dst mesh.NodeID) {
	t := TargetedRouter(f.rf, cur, dst, f.hops)
	if t == mesh.Invalid {
		return
	}
	if f.strict {
		d := topo.MustRoute(f.rf, cur, t)
		if d != mesh.Local {
			di := dirIndex(d)
			if f.strictUsed[cur][di] {
				f.stats.StrictDrops++
				return
			}
			f.strictUsed[cur][di] = true
		}
	}
	f.stats.SourceEmissions++
	f.pending[cur] = appendUnique(f.pending[cur], t)
	f.markLive(cur)
	f.emitted = true
	if f.bus != nil {
		f.bus.Emit(obs.Event{Kind: obs.KindPunchEmit, Node: int32(cur),
			Dst: int32(t), A: int64(dst)})
	}
}

// EmitLocal asserts the injection-node punch of PowerPunch-PG's slack 1:
// a message with known destination dst is in node src's NI, so the local
// router is held awake and the multi-hop punch toward the targeted router
// starts immediately (paper Section 4.2). Call once per pending NI
// message per cycle.
func (f *Fabric) EmitLocal(src, dst mesh.NodeID) {
	f.localHold[src] = true
	f.markLive(src)
	f.emitted = true
	if f.bus != nil {
		f.bus.Emit(obs.Event{Kind: obs.KindPunchLocal, Node: int32(src)})
	}
	if src != dst {
		f.EmitSource(src, dst)
	}
}

// HoldLocal asserts only the local-router hold at node n (the paper's
// slack 2: a resource access guarantees a packet will be injected, but
// the destination is not yet known, so no multi-hop punch can be formed).
func (f *Fabric) HoldLocal(n mesh.NodeID) {
	f.localHold[n] = true
	f.markLive(n)
	f.emitted = true
	if f.bus != nil {
		f.bus.Emit(obs.Event{Kind: obs.KindPunchLocal, Node: int32(n)})
	}
}

// markLive adds node n to the set the next Step visits.
func (f *Fabric) markLive(n mesh.NodeID) { f.live[n>>6] |= 1 << (n & 63) }

// Step processes one cycle: computes each router's hold level from the
// punches arriving or asserted there, relays surviving targets one link
// toward their targets, and prepares the next cycle's inboxes. Call
// exactly once per simulation cycle after all Emit* calls.
//
// Only live nodes are visited, in ascending order: a node with no local
// hold, pending or inbound target has no hold, relays nothing and owns
// no outbox, so the full walk's work for it is a no-op. Holds are reset
// through the previous heldList rather than for every node.
func (f *Fabric) Step() {
	for _, id := range f.heldList {
		f.hold[id] = false
	}
	f.heldList = f.heldList[:0]
	f.live, f.stepping = f.stepping, f.live
	for w, word := range f.stepping {
		for ; word != 0; word &= word - 1 {
			node := w<<6 + bits.TrailingZeros64(word)
			id := mesh.NodeID(node)
			hold := f.localHold[node] || len(f.pending[node]) > 0 || len(f.inbox[node]) > 0
			if hold {
				f.heldList = append(f.heldList, id)
			}

			// Union of transiting (inbox) and newly-asserted (pending)
			// targets; relay everything not addressed to this router.
			if !f.faultDropRelays {
				f.relay(id, f.inbox[node], true)
			}
			f.inbox[node] = f.inbox[node][:0] // refilled by the delivery below
			f.relay(id, f.pending[node], false)

			f.hold[node] = hold
			if hold && f.bus != nil {
				f.bus.Emit(obs.Event{Kind: obs.KindPunchHold, Node: int32(id)})
			}
		}
	}

	// Deliver: outboxes become neighbours' inboxes for the next cycle.
	// Only live nodes own a non-empty outbox.
	f.inboxAny = false
	for w, word := range f.stepping {
		for ; word != 0; word &= word - 1 {
			node := w<<6 + bits.TrailingZeros64(word)
			for di := 0; di < mesh.NumLinkDirs; di++ {
				out := f.outbox[node][di]
				if len(out) == 0 {
					continue
				}
				f.stats.ChannelCycles++
				if f.acct != nil {
					f.acct.PunchHop(node)
				}
				if f.verify {
					f.checkEncodable(node, di, out)
				}
				nb := f.t.Neighbor(mesh.NodeID(node), mesh.LinkDirections[di])
				if nb == mesh.Invalid {
					// A target beyond a fabric edge is impossible under minimal
					// routing toward a valid node; drop defensively.
					f.outbox[node][di] = out[:0]
					continue
				}
				for _, t := range out {
					f.inbox[nb] = appendUnique(f.inbox[nb], t)
				}
				f.markLive(nb)
				f.inboxAny = true
				f.outbox[node][di] = out[:0]
			}
			f.pending[node] = f.pending[node][:0]
			f.localHold[node] = false
			f.strictUsed[node] = [mesh.NumLinkDirs]bool{}
		}
	}
	clear(f.stepping)
	f.emitted = false
}

// relay routes every target in targets that is not addressed to id one
// link onward, into id's outbox; isRelay marks inbound (transiting)
// targets as opposed to ones asserted at id this cycle.
func (f *Fabric) relay(id mesh.NodeID, targets []mesh.NodeID, isRelay bool) {
	for _, t := range targets {
		if t == id {
			// Absorbed: this router is the target.
			if isRelay && f.bus != nil {
				f.bus.Emit(obs.Event{Kind: obs.KindPunchArrive, Node: int32(id)})
			}
			continue
		}
		di := dirIndex(topo.MustRoute(f.rf, id, t))
		box := &f.outbox[id][di]
		before := len(*box)
		*box = appendUnique(*box, t)
		if isRelay && len(*box) > before {
			f.stats.RelayedTargets++
		}
		if f.bus != nil && before > 0 && len(*box) > before {
			// The channel register already carried a target: this
			// is a Table-1 merge.
			f.bus.Emit(obs.Event{Kind: obs.KindPunchMerge, Node: int32(id),
				Dir: int8(mesh.LinkDirections[di]), Dst: int32(t)})
		}
	}
}

// NeedsStep reports whether skipping this cycle's Step would change any
// observable state: an Emit*/Hold* call was made since the last Step, the
// last Step delivered inbound targets, or it computed a hold (holds are
// level signals that must be recomputed — and cleared — next cycle). When
// false, Step would be a pure no-op and the scheduler may skip it.
func (f *Fabric) NeedsStep() bool {
	return f.emitted || f.inboxAny || len(f.heldList) > 0
}

// Held returns the nodes the last Step computed a hold for. The slice is
// owned by the fabric and valid until the next Step; the scheduler uses
// it to keep punched routers in the active set.
func (f *Fabric) Held() []mesh.NodeID { return f.heldList }

// SetFaultDropRelays installs a deliberate defect: inbound punch targets
// are absorbed instead of relayed, so punch signals reach only one hop
// from their emitter. It exists solely so the punch-nonblocking invariant
// can be demonstrated against a real failure; see config.Faults.
func (f *Fabric) SetFaultDropRelays(v bool) { f.faultDropRelays = v }

// Hold reports whether node n must be awake this cycle because a punch
// named or transited it (valid after Step).
func (f *Fabric) Hold(n mesh.NodeID) bool { return f.hold[n] }

// InboxTargets returns the targets currently inbound at node n (for tests
// and debugging). The returned slice is owned by the fabric.
func (f *Fabric) InboxTargets(n mesh.NodeID) []mesh.NodeID { return f.inbox[n] }

// linkDirIndex maps a link direction to its index in mesh.LinkDirections.
var linkDirIndex = [mesh.NumLinkDirs]int{mesh.North: 0, mesh.South: 1, mesh.East: 2, mesh.West: 3}

func dirIndex(d mesh.Direction) int {
	if uint(d) < mesh.NumLinkDirs {
		return linkDirIndex[d]
	}
	panic(fmt.Sprintf("core: direction %v is not a link direction", d))
}

func appendUnique(s []mesh.NodeID, t mesh.NodeID) []mesh.NodeID {
	for _, v := range s {
		if v == t {
			return s
		}
	}
	return append(s, t)
}
