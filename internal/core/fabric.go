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
//
// Every punch register holds a reach set: one uint64 per node whose bit
// b stands for the target at routed offset offs[b] from that node (see
// topo.RoutingFunction.Offset), over every offset within the hop budget.
// Punches that meet merge by OR, as the paper's Table-1 channels merge
// them without loss.
type Fabric struct {
	rf   *topo.RoutingFunction
	t    *topo.Topology
	hops int
	// strict limits each router to one newly-generated punch per outgoing
	// direction per cycle, matching the single-signal-per-emitter model
	// Table 1 encodes. Relays are never dropped (merging is lossless).
	strict bool
	acct   *power.Accountant

	// inbox[n]: targets whose punch arrived at n this cycle. Step reads
	// it and delivers the next cycle's arrivals into next, then swaps.
	inbox, next []uint64
	// pending[n]: targets asserted at n this cycle by source emissions.
	pending []uint64
	// hold[n]: result of Step — n must stay/awake this cycle.
	hold []bool

	// The register layout, shared by every node. offs[b] is the offset
	// bit b stands for and bitAt[(dy+hops)*(2*hops+1)+dx+hops] the bit of
	// offset (dx, dy); self is the bit of the zero offset. route[d]
	// holds the bits whose first hop leaves by link direction d, and
	// moved[d][b] is bit b of route[d] one hop on, in the neighbour's
	// register.
	offs  []offset
	bitAt []uint8
	self  uint64
	route [mesh.NumLinkDirs]uint64
	moved [mesh.NumLinkDirs][64]uint64

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
	// inbox, hold, live) is provably empty/false then.
	emitted  bool
	inboxAny bool
	heldList []mesh.NodeID

	// live is the bitset of nodes the next Step visits: those with a
	// local hold (an NI punch), a pending target or an inbound target,
	// which are exactly the nodes the next Step holds. Step swaps it
	// into stepping and walks that in ascending order.
	live, stepping []uint64

	// targets is the scratch list InboxTargets and verification decode
	// a register into.
	targets []mesh.NodeID

	// bus, when non-nil, receives punch emit/local/merge/arrive/hold
	// events.
	bus *obs.Bus

	stats FabricStats
}

// offset is a routed offset from a register's node.
type offset struct{ dx, dy int }

// maxPunchHops is the largest hop budget whose reach set fits a
// register: 2h²+2h+1 offsets, 61 at h = 5.
const maxPunchHops = 5

// NewFabric returns a punch fabric routed by rf with the given
// hop-count slack (paper default 3, at most maxPunchHops). acct may be
// nil to skip energy accounting.
func NewFabric(rf *topo.RoutingFunction, hops int, strict bool, acct *power.Accountant) *Fabric {
	if hops < 1 || hops > maxPunchHops {
		panic(fmt.Sprintf("core: punch hops must be in [1, %d], got %d", maxPunchHops, hops))
	}
	n := rf.Topology().NumNodes()
	f := &Fabric{
		rf:       rf,
		t:        rf.Topology(),
		hops:     hops,
		strict:   strict,
		acct:     acct,
		inbox:    make([]uint64, n),
		next:     make([]uint64, n),
		pending:  make([]uint64, n),
		hold:     make([]bool, n),
		live:     make([]uint64, (n+63)/64),
		stepping: make([]uint64, (n+63)/64),
	}
	// Lay the reach set out row-major (dy, then dx), so the bit order
	// is the node order on an unwrapped fabric.
	side := 2*hops + 1
	f.bitAt = make([]uint8, side*side)
	for dy := -hops; dy <= hops; dy++ {
		for dx := -hops; dx <= hops; dx++ {
			if abs(dx)+abs(dy) <= hops {
				f.bitAt[(dy+hops)*side+dx+hops] = uint8(len(f.offs))
				f.offs = append(f.offs, offset{dx, dy})
			}
		}
	}
	for b, o := range f.offs {
		d := topo.OffsetDirection(o.dx, o.dy)
		if d == mesh.Local {
			f.self = 1 << b
			continue
		}
		sx, sy := mesh.Step(d)
		f.route[d] |= 1 << b
		f.moved[d][b] = 1 << f.bitOf(o.dx-sx, o.dy-sy)
	}
	return f
}

// bitOf returns the register bit of offset (dx, dy).
func (f *Fabric) bitOf(dx, dy int) uint8 {
	return f.bitAt[(dy+f.hops)*(2*f.hops+1)+dx+f.hops]
}

// decode lists the targets in register m of node n, in ascending bit
// order, into the fabric's scratch list.
func (f *Fabric) decode(n int, m uint64) []mesh.NodeID {
	f.targets = f.targets[:0]
	for ; m != 0; m &= m - 1 {
		o := f.offs[bits.TrailingZeros64(m)]
		f.targets = append(f.targets, f.t.Translate(mesh.NodeID(n), o.dx, o.dy))
	}
	return f.targets
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
// target-set keys for channel (node, d).
func (f *Fabric) codebook(node int, d mesh.Direction) map[string]bool {
	key := node*mesh.NumLinkDirs + int(d)
	if cb, ok := f.codebooks[key]; ok {
		return cb
	}
	cb := map[string]bool{}
	if enc := EncodeChannel(f.rf, mesh.NodeID(node), d, f.hops); enc != nil {
		for _, c := range enc.Codes {
			cb[c.Set.Key()] = true
		}
	}
	f.codebooks[key] = cb
	return cb
}

// checkEncodable panics if channel (node, d), carrying register m, is
// outside its code book.
func (f *Fabric) checkEncodable(node int, d mesh.Direction, m uint64) {
	targets := f.decode(node, m)
	red := reduceTargets(f.rf, mesh.NodeID(node), targets)
	if !f.codebook(node, d)[red.Key()] {
		panic(fmt.Sprintf("core: channel %d->%v carries unencodable set %v (reduced %v)",
			node, d, targets, red))
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
	if cur == dst {
		return
	}
	dx, dy := topo.AheadOffset(f.rf, cur, dst, f.hops)
	b := f.bitOf(dx, dy)
	if f.strict && f.pending[cur]&f.route[topo.OffsetDirection(dx, dy)] != 0 {
		// Only source emissions fill pending, so an earlier one this
		// cycle already took the channel.
		f.stats.StrictDrops++
		return
	}
	f.stats.SourceEmissions++
	f.pending[cur] |= 1 << b
	f.markLive(cur)
	f.emitted = true
	if f.bus != nil {
		f.bus.Emit(obs.Event{Kind: obs.KindPunchEmit, Node: int32(cur),
			Dst: int32(f.t.Translate(cur, dx, dy)), A: int64(dst)})
	}
}

// EmitLocal asserts the injection-node punch of PowerPunch-PG's slack 1:
// a message with known destination dst is in node src's NI, so the local
// router is held awake and the multi-hop punch toward the targeted router
// starts immediately (paper Section 4.2). Call once per pending NI
// message per cycle.
func (f *Fabric) EmitLocal(src, dst mesh.NodeID) {
	f.markLive(src)
	f.emitted = true
	if f.bus != nil {
		f.bus.Emit(obs.Event{Kind: obs.KindPunchLocal, Node: int32(src)})
	}
	f.EmitSource(src, dst)
}

// HoldLocal asserts only the local-router hold at node n (the paper's
// slack 2: a resource access guarantees a packet will be injected, but
// the destination is not yet known, so no multi-hop punch can be formed).
func (f *Fabric) HoldLocal(n mesh.NodeID) {
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
// hold, pending or inbound target has no hold and relays nothing, so
// the full walk's work for it is a no-op, and every live node holds.
// Holds are reset through the previous heldList rather than for every
// node.
func (f *Fabric) Step() {
	for _, id := range f.heldList {
		f.hold[id] = false
	}
	f.heldList = f.heldList[:0]
	f.live, f.stepping = f.stepping, f.live
	f.inboxAny = false
	for w, word := range f.stepping {
		for ; word != 0; word &= word - 1 {
			node := w<<6 + bits.TrailingZeros64(word)
			in, pend := f.inbox[node], f.pending[node]
			f.inbox[node], f.pending[node] = 0, 0
			f.heldList = append(f.heldList, mesh.NodeID(node))
			f.hold[node] = true

			// Relay the union of transiting (inbox) and newly-asserted
			// (pending) targets not addressed to this router, which
			// absorbs its own bit.
			if f.faultDropRelays {
				in = 0
			} else if in&f.self != 0 && f.bus != nil {
				f.bus.Emit(obs.Event{Kind: obs.KindPunchArrive, Node: int32(node)})
			}
			f.stats.RelayedTargets += int64(bits.OnesCount64(in &^ f.self))
			if out := (in | pend) &^ f.self; out != 0 {
				f.send(node, out)
			}

			if f.bus != nil {
				f.bus.Emit(obs.Event{Kind: obs.KindPunchHold, Node: int32(node)})
			}
		}
	}
	f.inbox, f.next = f.next, f.inbox
	clear(f.stepping)
	f.emitted = false
}

// send splits register out of node by first hop into its channels and
// delivers each into the neighbour's next-cycle inbox. A channel
// carrying m targets is one Table-1 merge of m-1 of them into the
// first: the merge events name every target but the lowest bit, in
// ascending bit order.
func (f *Fabric) send(node int, out uint64) {
	for d := mesh.Direction(0); d < mesh.NumLinkDirs; d++ {
		m := out & f.route[d]
		if m == 0 {
			continue
		}
		f.stats.ChannelCycles++
		if f.acct != nil {
			f.acct.PunchHop()
		}
		if f.bus != nil && m&(m-1) != 0 {
			for _, t := range f.decode(node, m&(m-1)) {
				f.bus.Emit(obs.Event{Kind: obs.KindPunchMerge, Node: int32(node),
					Dir: int8(d), Dst: int32(t)})
			}
		}
		if f.verify {
			f.checkEncodable(node, d, m)
		}
		nb := f.t.Neighbor(mesh.NodeID(node), d)
		if nb == mesh.Invalid {
			// A target beyond a fabric edge is impossible under minimal
			// routing toward a valid node; drop defensively.
			continue
		}
		var in uint64
		for ; m != 0; m &= m - 1 {
			in |= f.moved[d][bits.TrailingZeros64(m)]
		}
		f.next[nb] |= in
		f.markLive(nb)
		f.inboxAny = true
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

// InboxTargets returns the targets currently inbound at node n, in
// ascending register-bit order (for checks, tests and debugging). The
// returned slice is owned by the fabric and valid until the next call.
func (f *Fabric) InboxTargets(n mesh.NodeID) []mesh.NodeID { return f.decode(int(n), f.inbox[n]) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
