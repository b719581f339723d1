// Package router implements the cycle-accurate wormhole virtual-channel
// router of the paper's Figure 3: input-buffered, credit-based flow
// control, per-virtual-network VCs, look-ahead routing, and either a
// 4-stage pipeline (BW, VA, SA, ST) or the 3-stage variant with
// speculative switch allocation. Power-gating integration follows
// Figure 2: a gated or waking neighbor is masked in the switch allocator
// and traffic toward it stalls, accruing the paper's blocking statistics.
package router

import (
	"fmt"
	"math/bits"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/link"
	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/pg"
	"powerpunch/internal/power"
	"powerpunch/internal/scheme"
	"powerpunch/internal/topo"
	"powerpunch/internal/workset"
)

// Credit is the upstream flow-control token: one buffer slot freed in
// virtual channel VC of the receiving input port.
type Credit struct {
	VC int
}

// FlitInTransit pairs a flit with the downstream virtual channel it was
// allocated to. Bypass marks a flit flying over a gated router on the
// bypass latch path (FlyOver-style schemes): it is set only on the
// first link of the two-link hop, and VC then names an input VC of the
// router two hops out — the network forwards the flit across the gated
// router's output pipe (untagged) instead of delivering it into its
// buffers.
type FlitInTransit struct {
	Flit   *flit.Flit
	VC     int
	Bypass bool
}

// vc is one input virtual channel's hot state: where its ring of
// buffered flits sits in the router-wide slot arrays, plus the routing
// state of the packet currently at its front. Whether that packet holds
// a downstream VC is the key's bit in Router.vaSet.
type vc struct {
	// credOut is the owning input port's upstream credit pipe.
	credOut *link.Pipe[Credit]
	// The VC's ring occupies slots [base, base+depth) of Router.slots,
	// Router.arrs and Router.dsts; its front flit is at base+head and
	// count flits are buffered. config.MaxVCDepth bounds depth, so the
	// ring fields fit in a byte.
	base               int32
	head, count, depth uint8

	outDir uint8 // mesh.Direction of the routed output
	key    int32 // arbitration key: index into Router.vcs and the bitsets
	idx    int32 // global VC index within the port
	outVC  int32

	routed      bool // output direction computed (look-ahead RC)
	blockedOnce bool // current head already counted as PG-blocked

	// Bypass (FlyOver-style) state: thruOK is computed at route time
	// and reports that the packet would continue straight through the
	// downstream router, making it eligible to fly over it if gated;
	// bypassing marks an established bypass stream, with outVC naming
	// an input VC of the router two hops out.
	thruOK    bool
	bypassing bool
}

// front returns the slot index of v's front flit.
func (v *vc) front() int { return int(v.base) + int(v.head) }

// slot returns the slot index of v's i-th buffered flit from the front.
func (v *vc) slot(i int) int {
	i += int(v.head)
	if i >= int(v.depth) {
		i -= int(v.depth)
	}
	return int(v.base) + i
}

// InputPort is one of the router's five input ports.
type InputPort struct {
	dir mesh.Direction
	// CreditOut carries freed-slot credits back to the upstream router
	// (or the local NI for the Local port). Owned by the network.
	CreditOut *link.Pipe[Credit]
}

// OutputPort is one of the router's five output ports.
type OutputPort struct {
	dir      mesh.Direction
	neighbor mesh.NodeID // Invalid for Local and mesh edges
	// FlitOut carries flits to the downstream input port (or NI).
	FlitOut *link.Pipe[FlitInTransit]
	credits []int32
	owner   []int32 // per downstream VC: global input-VC key, or -1
	// Blocked is set by the network each cycle when the downstream
	// router asserts PG (gated or waking): the switch allocator masks
	// this output.
	Blocked bool
}

// Neighbor returns the downstream router (Invalid for Local/edges).
func (op *OutputPort) Neighbor() mesh.NodeID { return op.neighbor }

// Credits returns the available credit count for downstream VC v.
func (op *OutputPort) Credits(v int) int { return int(op.credits[v]) }

// Owner returns the arbitration key (see Router.ForEachVC) of the input
// VC holding downstream VC v of this output port, or -1 when free.
func (op *OutputPort) Owner(v int) int { return int(op.owner[v]) }

// Router is one fabric router. Step, EmitPunches, and the
// stall-accounting walk touch only this router's own state; cross-router
// effects travel exclusively through the output pipes and credit
// queues, drained by the network's delivery phase.
type Router struct {
	ID mesh.NodeID
	// classes is the number of dateline VC classes of the routing
	// function (1 or 2); bypassOn and faultBypassIllegalTurn are
	// described with the bypass wiring below. The three share one word.
	classes                int32
	bypassOn               bool
	faultBypassIllegalTurn bool
	cfg                    *config.Config
	rf                     *topo.RoutingFunction
	Ctrl                   *pg.Controller

	in   [mesh.NumPorts]*InputPort
	out  [mesh.NumPorts]*OutputPort
	acct *power.Accountant

	numVCs   int // per port
	buffered int // total flits buffered (fast idle check)
	swRR     [mesh.NumPorts]int
	trouter  int64

	// holds is set while buffered > 0 (see TrackHolds).
	holds workset.Bit

	// vcs is the key-indexed VC table: vcs[vcKey(p, i)] is VC i of input
	// port p, so no stage divides a key back into (port, VC).
	vcs []vc
	// slots, arrs and dsts hold every VC's ring, back to back in key
	// order: the buffered flit, its arrival cycle, and its packet's
	// destination if it is a head flit (mesh.Invalid otherwise). The
	// stages test for a head, and punch emission reads destinations,
	// from dsts without dereferencing a flit.
	slots []*flit.Flit
	arrs  []int64
	dsts  []int32

	// Bitsets over VC keys. The stages walk the set bits of their ANDs
	// instead of probing every (port, VC) slot, so stage cost scales with
	// resident packets, not with the 5 x numVCs buffer geometry. occ: the
	// VC buffers a flit. routedTo[p]: v.routed && v.outDir == p. vaSet:
	// the VC's packet holds a downstream VC (v.outVC). routedTo and vaSet
	// change only next to the vc fields they describe (route, allocated,
	// endPacket, bypass admission). cand is per-stage scratch for the
	// ANDs.
	occ      []uint64
	routedTo [mesh.NumPorts][]uint64
	vaSet    []uint64
	cand     []uint64

	// forwardHook, when set, is called with the downstream router's ID
	// whenever a flit is pushed onto a non-Local output link. The
	// active-set scheduler uses it to arm the receiver before the flit
	// arrives.
	forwardHook func(mesh.NodeID)

	// bus, when non-nil, receives flit-lifecycle events (VC allocation,
	// switch traversal, link departure, PG stalls). Nil keeps the hot
	// path free of observability work beyond one branch per site.
	bus *obs.Bus

	// Bypass (FlyOver-style) wiring, installed by the network when the
	// scheme policy enables bypass. Per link direction d: thruOut is
	// the flown-over neighbor's output port in the same direction (the
	// landing router's input VC space), nbrCtrl the flown-over
	// neighbor's controller, thruCtrl/thruNbr the landing router two
	// hops out. All nil/Invalid where the through-path leaves the
	// fabric (mesh edges). bypassOn (in the first word) enables all of
	// it, and faultBypassIllegalTurn is a deliberate defect: bypass
	// admission skips the straight-through routing check (see
	// config.Faults).
	//
	// Concurrency note: tryBypassGrant writes thruOut's owner/credit
	// arrays from this router's pipeline phase. That is safe because a
	// stream is admitted only while the flown-over neighbor is Gated
	// and pg.Inputs.BypassHold keeps it from completing a wake until
	// the stream's tail clears the first link — its own pipeline never
	// runs concurrently. Each (neighbor, direction) pair has exactly
	// one upstream router, so two senders never share a thruOut port.
	bypassEnergy  scheme.BypassEnergy
	thruOut       [mesh.NumPorts]*OutputPort
	nbrCtrl       [mesh.NumPorts]*pg.Controller
	thruCtrl      [mesh.NumPorts]*pg.Controller
	thruNbr       [mesh.NumPorts]mesh.NodeID
	bypassStreams [mesh.NumPorts]int

	// Stats.
	FlitsForwarded int64
	PGStallCycles  int64
	FlitsBypassed  int64
}

// New constructs a router. Pipes for output flits and input credits are
// created here with the configured link latency; the network wires them
// to neighbors. ctrl must be non-nil (use a disabled controller for the
// No-PG baseline). acct may be nil.
func New(id mesh.NodeID, rf *topo.RoutingFunction, cfg *config.Config, ctrl *pg.Controller, acct *power.Accountant) *Router {
	numVCs := int(flit.NumVirtualNetworks) * cfg.VCsPerVN()
	r := &Router{
		ID:      id,
		cfg:     cfg,
		rf:      rf,
		Ctrl:    ctrl,
		acct:    acct,
		numVCs:  numVCs,
		classes: int32(rf.VCClasses()),
		trouter: int64(cfg.RouterCycles()),
	}
	// One allocation for all eight bitsets: on a 64x64 fabric per-set
	// allocations cost measurable RSS.
	w := (mesh.NumPorts*numVCs + 63) / 64
	sets := make([]uint64, 8*w)
	set := func(i int) []uint64 { return sets[i*w : (i+1)*w : (i+1)*w] }
	r.occ = set(0)
	for p := range r.routedTo {
		r.routedTo[p] = set(1 + p)
	}
	r.vaSet, r.cand = set(6), set(7)
	for p := range r.thruNbr {
		r.thruNbr[p] = mesh.Invalid
	}
	// Each VC's ring is a fixed window of the router-wide slot arrays,
	// sized to the credit-enforced depth, so buffering never allocates.
	perPort := int(flit.NumVirtualNetworks) * (cfg.DataVCs*cfg.DataVCDepth + cfg.CtrlVCs*cfg.CtrlVCDepth)
	r.slots = make([]*flit.Flit, mesh.NumPorts*perPort)
	r.arrs = make([]int64, mesh.NumPorts*perPort)
	r.dsts = make([]int32, mesh.NumPorts*perPort)
	r.vcs = make([]vc, mesh.NumPorts*numVCs)
	off := 0
	for p := 0; p < mesh.NumPorts; p++ {
		dir := mesh.Direction(p)
		ip := &InputPort{
			dir:       dir,
			CreditOut: link.NewPipe[Credit](cfg.LinkLatency),
		}
		for v := 0; v < numVCs; v++ {
			d := cfg.VCDepth(v % cfg.VCsPerVN())
			key := r.vcKey(p, v)
			r.vcs[key] = vc{
				credOut: ip.CreditOut, base: int32(off), depth: uint8(d),
				key: int32(key), idx: int32(v),
			}
			off += d
		}
		r.in[p] = ip

		// credits and owner are int32s in one allocation: on a 64x64
		// fabric that pays for the pipes' occupancy bits.
		co := make([]int32, 2*numVCs)
		op := &OutputPort{
			dir:      dir,
			neighbor: mesh.Invalid,
			FlitOut:  link.NewPipe[FlitInTransit](cfg.LinkLatency),
			credits:  co[:numVCs:numVCs],
			owner:    co[numVCs:],
		}
		if dir != mesh.Local {
			op.neighbor = rf.Topology().Neighbor(id, dir)
		}
		for v := range op.credits {
			if dir == mesh.Local {
				// The NI ejection sink always accepts (responses must
				// always sink for protocol deadlock freedom).
				op.credits[v] = 1 << 30
			} else {
				op.credits[v] = int32(cfg.VCDepth(v % cfg.VCsPerVN()))
			}
			op.owner[v] = -1
		}
		r.out[p] = op
	}
	return r
}

// In returns the input port on side d.
func (r *Router) In(d mesh.Direction) *InputPort { return r.in[d] }

// Out returns the output port on side d.
func (r *Router) Out(d mesh.Direction) *OutputPort { return r.out[d] }

// NumVCs returns the number of virtual channels per port.
func (r *Router) NumVCs() int { return r.numVCs }

// BufferedFlits returns the number of flits currently buffered.
func (r *Router) BufferedFlits() int { return r.buffered }

// Empty reports whether the router datapath holds no flits.
func (r *Router) Empty() bool { return r.buffered == 0 }

// TrackHolds makes b the router's holds bit: set while the router
// buffers at least one flit, written when the count leaves or returns
// to zero. It is written at once from the current contents.
func (r *Router) TrackHolds(b workset.Bit) {
	r.holds = b
	b.Put(r.buffered > 0)
}

// ReceiveFlit writes an arriving flit into input port side d, virtual
// channel vcIdx (the VC the upstream allocator chose). The caller
// guarantees buffer space (credit-based flow control).
func (r *Router) ReceiveFlit(d mesh.Direction, vcIdx int, f *flit.Flit, now int64) {
	v := r.vcAt(int(d), vcIdx)
	if v.count == v.depth {
		panic(fmt.Sprintf("router %d: VC overflow on %v vc%d (credit protocol violated)", r.ID, d, vcIdx))
	}
	i := v.slot(int(v.count))
	r.slots[i], r.arrs[i], r.dsts[i] = f, now, int32(mesh.Invalid)
	if f.Type.IsHead() {
		r.dsts[i] = int32(f.Packet.Dst)
	}
	v.count++
	setBit(r.occ, int(v.key))
	if r.buffered == 0 {
		r.holds.Set()
	}
	r.buffered++
	if r.acct != nil {
		r.acct.BufferWrite()
	}
}

// ReceiveCredit restores one credit for output port d, VC vcIdx.
func (r *Router) ReceiveCredit(d mesh.Direction, vcIdx int) {
	r.out[d].credits[vcIdx]++
}

// VCOccupancy returns the number of flits buffered in input port d,
// virtual channel v (used by the network's invariant checks).
func (r *Router) VCOccupancy(d mesh.Direction, v int) int {
	return int(r.vcAt(int(d), v).count)
}

// vcKey packs (input port, vc index) into a single arbitration key.
func (r *Router) vcKey(port, vcIdx int) int { return port*r.numVCs + vcIdx }

// vcAt returns VC vcIdx of input port port.
func (r *Router) vcAt(port, vcIdx int) *vc { return &r.vcs[r.vcKey(port, vcIdx)] }

func setBit(s []uint64, key int)      { s[key>>6] |= 1 << (key & 63) }
func clearBit(s []uint64, key int)    { s[key>>6] &^= 1 << (key & 63) }
func hasBit(s []uint64, key int) bool { return s[key>>6]&(1<<(key&63)) != 0 }

// and2 sets dst = a & b; and3 sets dst = a & b & c; andNot sets
// dst = a &^ b. All operands have the router's bitset length. Each
// returns the OR of the result's words, so a zero result (no candidate
// VC) skips the walk.
func and2(dst, a, b []uint64) (nz uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i]
		nz |= dst[i]
	}
	return nz
}

func and3(dst, a, b, c []uint64) (nz uint64) {
	for i := range dst {
		dst[i] = a[i] & b[i] & c[i]
		nz |= dst[i]
	}
	return nz
}

func andNot(dst, a, b []uint64) (nz uint64) {
	for i := range dst {
		dst[i] = a[i] &^ b[i]
		nz |= dst[i]
	}
	return nz
}

// nextSet returns the smallest key >= from set in s, or -1. Keys come
// back in ascending order, so iterating nextSet(s, 0), nextSet(s, k+1),
// ... visits the set VCs in exactly the (port, vc) order the plain
// nested loops would.
func nextSet(s []uint64, from int) int {
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	word := s[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(s) {
			return -1
		}
		word = s[w]
	}
}

// rrNext walks s in round-robin order from start: given the last key
// visited (-1 to begin), it returns the next set key in the circular
// order start, start+1, ..., total-1, 0, ..., start-1, or -1 once the
// walk has wrapped back to start. It visits exactly the keys the full
// (start+k)%total probe would accept, in the same order, with the unset
// slots deleted.
func rrNext(s []uint64, start, last int) int {
	from := start
	if last != -1 {
		from = last + 1
	}
	if last == -1 || last >= start {
		if k := nextSet(s, from); k != -1 {
			return k
		}
		from = 0
	}
	if k := nextSet(s, from); k != -1 && k < start {
		return k
	}
	return -1
}

// route records the look-ahead route of v's front head (toward d).
func (r *Router) route(v *vc, d mesh.Direction) {
	v.outDir = uint8(d)
	v.routed = true
	setBit(r.routedTo[d], int(v.key))
}

// allocated records that v holds downstream VC ov.
func (r *Router) allocated(v *vc, ov int) {
	v.outVC = int32(ov)
	setBit(r.vaSet, int(v.key))
}

// endPacket clears v's per-packet state once its tail has left.
func (r *Router) endPacket(v *vc) {
	if v.routed {
		clearBit(r.routedTo[v.outDir], int(v.key))
	}
	clearBit(r.vaSet, int(v.key))
	v.routed = false
	v.blockedOnce = false
}

// popFront removes v's front flit, keeping occ and the flit count in
// step, and returns it.
func (r *Router) popFront(v *vc) *flit.Flit {
	i := v.front()
	out := r.slots[i]
	r.slots[i] = nil
	if v.head++; v.head == v.depth {
		v.head = 0
	}
	if v.count--; v.count == 0 {
		clearBit(r.occ, int(v.key))
	}
	if r.buffered--; r.buffered == 0 {
		r.holds.Clear()
	}
	return out
}

// nextRR returns the round-robin pointer value after a grant to key.
func (r *Router) nextRR(key int) int {
	if key++; key == len(r.vcs) {
		return 0
	}
	return key
}

// Step advances the router one cycle: switch traversal first, then VC
// allocation / route computation, so a flit moves through at most one
// stage per cycle. A gated or waking router does nothing (its datapath
// is unpowered — and provably empty, since gating requires emptiness).
func (r *Router) Step(now int64) {
	if r.buffered == 0 || !r.Ctrl.IsOn() {
		return
	}
	r.stepST(now)
	r.stepVA(now)
}

// stepST performs switch allocation + traversal: for every output port,
// pick one eligible input VC round-robin and forward its front flit. For
// an output masked by a gated/waking neighbor it instead accrues the
// paper's per-packet blocking statistics (Figures 9 and 10).
func (r *Router) stepST(now int64) {
	cand := r.cand
	for p := 0; p < mesh.NumPorts; p++ {
		op := r.out[p]
		if op.Blocked {
			// Downstream router is gated or waking. Under a bypass
			// scheme, eligible traffic flies over it first; everything
			// else accrues the paper's per-packet blocking statistics
			// (Figures 9 and 10).
			if r.bypassOn {
				r.stepBypass(p, now)
			}
			if and2(cand, r.occ, r.routedTo[p]) == 0 {
				continue
			}
			for key := nextSet(cand, 0); key != -1; key = nextSet(cand, key+1) {
				v := &r.vcs[key]
				if r.bypassOn && r.wantSuppressed(v) {
					continue // served by the bypass path, not PG-blocked
				}
				if now-r.arrs[v.front()] < r.trouter {
					continue
				}
				r.PGStallCycles++
				pkt := r.slots[v.front()].Packet
				pkt.WakeupWait++
				if !v.blockedOnce {
					v.blockedOnce = true
					pkt.BlockedRouters++
				}
				if r.bus != nil {
					r.emitStall(p, int(v.idx), pkt)
				}
			}
			continue
		}

		// Switch requests toward p: occupied VCs routed to p that hold a
		// downstream VC, granted round-robin from swRR[p].
		if and3(cand, r.occ, r.routedTo[p], r.vaSet) == 0 {
			continue
		}
		start := r.swRR[p]
		for key := rrNext(cand, start, -1); key != -1; key = rrNext(cand, start, key) {
			v := &r.vcs[key]
			if now-r.arrs[v.front()] < r.trouter {
				continue // pipeline depth not yet traversed
			}
			ov := int(v.outVC)
			if op.credits[ov] <= 0 {
				continue // no downstream buffer space
			}

			// Grant: traverse the switch and the link.
			r.swRR[p] = r.nextRR(key)
			out := r.popFront(v)
			op.credits[ov]--
			op.FlitOut.Push(FlitInTransit{Flit: out, VC: ov}, now)
			r.FlitsForwarded++
			if r.acct != nil {
				r.acct.Traverse()
				if op.dir != mesh.Local {
					r.acct.LinkHop()
				}
			}
			if r.forwardHook != nil && op.dir != mesh.Local && op.neighbor != mesh.Invalid {
				r.forwardHook(op.neighbor)
			}
			if r.bus != nil {
				r.emitGrant(op, out, ov)
			}
			// Return the freed slot upstream.
			v.credOut.Push(Credit{VC: int(v.idx)}, now)

			if out.Type.IsTail() {
				// Release the downstream VC and the per-packet state.
				op.owner[ov] = -1
				r.endPacket(v)
			}
			break // one flit per output port per cycle
		}
	}
}

// BypassOwner is the sentinel claiming a landing VC for a bypass
// stream in the flown-over neighbor's owner array: the owner is an
// input VC of another router, so no local arbitration key applies.
// Exported so the invariant engine can assert the claim's shape.
const BypassOwner = -2

// thruEligible reports whether a head bound for dst and routed toward
// direction d would continue straight through the downstream router —
// the structural condition for flying over it if it gates. Computed
// once at route time and cached in vc.thruOK.
func (r *Router) thruEligible(d mesh.Direction, dst mesh.NodeID) bool {
	if d == mesh.Local || r.thruOut[d] == nil {
		return false
	}
	if r.faultBypassIllegalTurn {
		return true // deliberate defect: fling turning/ejecting heads too
	}
	next, err := r.rf.Route(r.out[d].neighbor, dst)
	return err == nil && next == d
}

// wantSuppressed reports whether an occupied, routed VC withholds its
// WU want toward its output: an established bypass stream, or a
// thru-eligible head whose landing router is on. In both cases the
// detour (or the normal path, if the neighbor is still on) makes
// progress without waking the neighbor — waking it would defeat the
// bypass. A body flit following the normal path, or a head whose
// landing router is itself gated, wants the neighbor awake as usual.
func (r *Router) wantSuppressed(v *vc) bool {
	if v.bypassing {
		return true
	}
	if !v.thruOK || v.count == 0 || r.dsts[v.front()] == int32(mesh.Invalid) || r.thruCtrl[v.outDir] == nil {
		return false
	}
	return !r.thruCtrl[v.outDir].PGAsserted()
}

// stepBypass arbitrates the bypass path for output port p while the
// downstream neighbor asserts PG: at most one flit per cycle flies
// over the gated neighbor onto the landing router two hops out,
// chosen by the same round-robin order as normal switch allocation.
func (r *Router) stepBypass(p int, now int64) {
	if r.thruOut[p] == nil {
		return
	}
	if and2(r.cand, r.occ, r.routedTo[p]) == 0 {
		return
	}
	start := r.swRR[p]
	for key := rrNext(r.cand, start, -1); key != -1; key = rrNext(r.cand, start, key) {
		if r.tryBypassGrant(&r.vcs[key], p, now) {
			return
		}
	}
}

// tryBypassGrant attempts to send the front flit of v, an occupied VC
// routed toward p, over the gated neighbor in direction p. New streams
// are admitted only for a pipeline-ready thru-eligible head while the
// neighbor is fully Gated (never mid-wake: pg.Inputs.BypassHold then
// pins it down until the tail clears the first link) and the landing
// router is on; an established stream continues on landing-VC credit
// alone, so a wake-in-progress at the flown-over router never strands a
// wormhole mid-stream.
func (r *Router) tryBypassGrant(v *vc, p int, now int64) bool {
	if now-r.arrs[v.front()] < r.trouter {
		return false // pipeline depth not yet traversed
	}
	to := r.thruOut[p]
	if v.bypassing {
		if to.credits[v.outVC] <= 0 {
			return false // no buffer space at the landing router
		}
	} else {
		if !v.thruOK || r.dsts[v.front()] == int32(mesh.Invalid) {
			return false
		}
		if r.nbrCtrl[p] == nil || r.nbrCtrl[p].State() != pg.Gated {
			return false
		}
		if r.thruCtrl[p] == nil || r.thruCtrl[p].PGAsserted() {
			return false
		}
		// The landing VC is restricted to the dateline class the
		// neighbor's own allocator would choose, so the contracted
		// channel-dependency path is a subpath of the normal one and
		// wrap-link deadlock freedom is preserved. Credit is required at
		// claim time because the claim and the first grant are one
		// atomic step.
		ov, ok := r.claimVC(to, r.out[p].neighbor, r.slots[v.front()].Packet, BypassOwner, true)
		if !ok {
			return false
		}
		// The normal path may have allocated a VC in the neighbor
		// before it gated; the stream will not use it.
		if hasBit(r.vaSet, int(v.key)) {
			r.out[p].owner[v.outVC] = -1
			clearBit(r.vaSet, int(v.key))
		}
		v.outVC = int32(ov)
		v.bypassing = true
		r.bypassStreams[p]++
	}

	// Grant: the flit traverses this router's switch, the first link,
	// the neighbor's bypass latch, and the second link, landing in the
	// input buffer of the router two hops out one cycle after it would
	// have reached the neighbor.
	r.swRR[p] = r.nextRR(int(v.key))
	out := r.popFront(v)
	to.credits[v.outVC]--
	r.out[p].FlitOut.Push(FlitInTransit{Flit: out, VC: int(v.outVC), Bypass: true}, now)
	r.FlitsForwarded++
	r.FlitsBypassed++
	if r.acct != nil {
		r.acct.Traverse()
		r.acct.LinkHop()
		if r.bypassEnergy != nil {
			r.bypassEnergy.AttributeBypass(r.acct)
		}
	}
	if r.forwardHook != nil {
		r.forwardHook(r.out[p].neighbor)
		r.forwardHook(r.thruNbr[p])
	}
	if r.bus != nil {
		r.emitGrant(r.out[p], out, int(v.outVC))
		r.bus.Emit(obs.Event{
			Kind: obs.KindBypass,
			Node: int32(r.ID),
			Dir:  int8(p),
			VC:   int16(v.outVC),
			Pkt:  out.Packet.ID,
			Src:  int32(r.out[p].neighbor),
			Dst:  int32(r.thruNbr[p]),
		})
	}
	// Return the freed slot upstream.
	v.credOut.Push(Credit{VC: int(v.idx)}, now)

	if out.Type.IsTail() {
		// Release the landing VC and per-packet state. The stream
		// counter is released by the network when the tail clears the
		// first link — the bypass latch is live until then.
		to.owner[v.outVC] = -1
		r.endPacket(v)
		v.bypassing = false
		v.thruOK = false
	}
	return true
}

// stepVA computes routes for newly-arrived heads (look-ahead RC costs no
// extra stage) and allocates downstream VCs. VA is eligible one cycle
// after head arrival (stage 2); the speculative 3-stage router differs
// only in total pipeline depth (config.RouterCycles), modelling
// always-successful speculation at low load — allocation conflicts add
// their own cycles naturally.
func (r *Router) stepVA(now int64) {
	// Only VCs without a downstream VC can route or allocate; routing and
	// allocation touch only the visited key's bits, so one snapshot of
	// occ &^ vaSet serves the whole walk.
	if andNot(r.cand, r.occ, r.vaSet) == 0 {
		return
	}
	for key := nextSet(r.cand, 0); key != -1; key = nextSet(r.cand, key+1) {
		v := &r.vcs[key]
		i := v.front()
		dst := mesh.NodeID(r.dsts[i])
		if dst == mesh.Invalid {
			continue // body/tail follow the established route
		}
		if !v.routed {
			// Route computation (look-ahead: available on arrival). A
			// routing error here means a corrupted destination — a
			// programming error, surfaced as the typed *topo.RouteError.
			d := topo.MustRoute(r.rf, r.ID, dst)
			r.route(v, d)
			v.blockedOnce = false
			v.thruOK = r.bypassOn && r.thruEligible(d, dst)
		}
		if now-r.arrs[i] < 1 {
			continue // VA is pipeline stage 2
		}
		pkt := r.slots[i].Packet
		if ov, got := r.claimVC(r.out[v.outDir], r.ID, pkt, key, false); got {
			r.allocated(v, ov)
			if r.bus != nil {
				r.bus.Emit(obs.Event{Kind: obs.KindVCAlloc, Node: int32(r.ID),
					Dir: int8(v.outDir), VC: int16(ov), Pkt: pkt.ID})
			}
		}
	}
}

// claimVC claims a free downstream VC of output port op for packet pkt,
// leaving router at (this router, or the flown-over neighbor for a
// bypass stream), and marks it held by owner. Data packets use data
// VCs; control packets prefer the control VCs and fall back to data
// VCs. On fabrics with wrap links (torus, ring) inter-router outputs
// are further restricted to the packet's dateline VC class, which is
// what breaks the ring's channel-dependency cycle (see
// topo.RoutingFunction.ClassFor); ejection through the Local port is
// never class-restricted. needCredit also requires a free slot.
func (r *Router) claimVC(op *OutputPort, at mesh.NodeID, pkt *flit.Packet, owner int, needCredit bool) (int, bool) {
	base := int(pkt.VN) * r.cfg.VCsPerVN()
	try := func(lo, hi int) (int, bool) {
		for v := base + lo; v < base+hi; v++ {
			if op.owner[v] == -1 && (!needCredit || op.credits[v] > 0) {
				op.owner[v] = int32(owner)
				return v, true
			}
		}
		return -1, false
	}
	dlo, dhi := 0, r.cfg.DataVCs
	clo, chi := r.cfg.DataVCs, r.cfg.VCsPerVN()
	if r.classes > 1 && op.dir != mesh.Local {
		cls := r.rf.ClassFor(at, pkt.Dst, op.dir)
		if r.cfg.Faults.InvertDatelineClass {
			cls = 1 - cls
		}
		dlo, dhi = r.cfg.DataVCClassRange(cls)
		clo, chi = r.cfg.CtrlVCClassRange(cls)
	}
	if pkt.Kind != flit.KindData {
		if v, ok := try(clo, chi); ok {
			return v, true
		}
	}
	return try(dlo, dhi)
}

// WantsOutput fills want with, per direction, whether any resident packet
// is routed toward that output. The network derives the WU levels of the
// paper's Figure 2 handshake from it (asserted from route-computation
// time — the ConvOpt "early wakeup" optimization).
func (r *Router) WantsOutput(want *[mesh.NumPorts]bool) {
	*want = [mesh.NumPorts]bool{}
	if r.buffered == 0 {
		return
	}
	if !r.bypassOn {
		for p := range want {
			want[p] = and2(r.cand, r.occ, r.routedTo[p]) != 0
		}
		return
	}
	for key := nextSet(r.occ, 0); key != -1; key = nextSet(r.occ, key+1) {
		v := &r.vcs[key]
		if v.routed && !r.wantSuppressed(v) {
			want[v.outDir] = true
		}
	}
}

// WantsOutputAtSA is the PlainPG variant of WantsOutput: the WU level
// fires only once a packet actually requests the switch toward the
// output (no early wakeup), matching the unoptimized handshake of the
// paper's Section 2.2.
func (r *Router) WantsOutputAtSA(want *[mesh.NumPorts]bool, now int64) {
	*want = [mesh.NumPorts]bool{}
	if r.buffered == 0 {
		return
	}
	for key := nextSet(r.occ, 0); key != -1; key = nextSet(r.occ, key+1) {
		v := &r.vcs[key]
		if v.routed && now-r.arrs[v.front()] >= r.trouter {
			want[v.outDir] = true
		}
	}
}

// VCView is a read-only snapshot of one input virtual channel, exposed
// for the internal/check invariant engine. Routed/VADone/OutDir/OutVC
// describe the packet currently owning the VC; they can outlive the
// buffered flits (a wormhole packet's body may still be upstream while
// the route is held).
type VCView struct {
	Port      mesh.Direction
	Index     int // VC index within the port
	Key       int // arbitration key, matches OutputPort.Owner
	Depth     int
	Occupancy int
	Front     *flit.Flit // nil when the VC is empty
	FrontAge  int64      // cycles since the front flit arrived
	Routed    bool
	VADone    bool
	OutDir    mesh.Direction
	OutVC     int
	// Bypass (FlyOver-style) state: see the vc fields of the same name.
	// While Bypassing, OutVC names an input VC of the router two hops
	// out, not of the direct neighbor.
	ThruOK    bool
	Bypassing bool
}

// ForEachVC invokes fn with a snapshot of every input VC of every port.
func (r *Router) ForEachVC(now int64, fn func(VCView)) {
	for p := 0; p < mesh.NumPorts; p++ {
		for vi := 0; vi < r.numVCs; vi++ {
			v := r.vcAt(p, vi)
			view := VCView{
				Port:      mesh.Direction(p),
				Index:     vi,
				Key:       int(v.key),
				Depth:     int(v.depth),
				Occupancy: int(v.count),
				Routed:    v.routed,
				VADone:    hasBit(r.vaSet, int(v.key)),
				OutDir:    mesh.Direction(v.outDir),
				OutVC:     int(v.outVC),
				ThruOK:    v.thruOK,
				Bypassing: v.bypassing,
			}
			if v.count > 0 {
				view.Front = r.slots[v.front()]
				view.FrontAge = now - r.arrs[v.front()]
			}
			fn(view)
		}
	}
}

// PipelineCycles returns Trouter, the per-hop pipeline depth in cycles.
func (r *Router) PipelineCycles() int64 { return r.trouter }

// EnableBypass turns on FlyOver-style bypass admission at this router.
// energy, when non-nil, is charged once per bypass grant at this
// (sending) router; nil skips the detour's extra energy.
func (r *Router) EnableBypass(energy scheme.BypassEnergy) {
	r.bypassOn = true
	r.bypassEnergy = energy
}

// SetBypassWiring installs the through-path for link direction d: the
// flown-over neighbor's output port (whose VC space belongs to the
// landing router's input) and controller, plus the landing router two
// hops out and its controller. Directions whose through-path leaves
// the fabric are simply never wired.
func (r *Router) SetBypassWiring(d mesh.Direction, nbOut *OutputPort, nbCtrl *pg.Controller, landing mesh.NodeID, landingCtrl *pg.Controller) {
	r.thruOut[d] = nbOut
	r.nbrCtrl[d] = nbCtrl
	r.thruNbr[d] = landing
	r.thruCtrl[d] = landingCtrl
}

// BypassStreams returns the number of bypass streams currently
// established from this router over its neighbor in direction d. The
// network derives the neighbor's BypassHold controller input and the
// two-hop incoming-quiet extension from it.
func (r *Router) BypassStreams(d mesh.Direction) int { return r.bypassStreams[d] }

// BypassStreamRelease retires one bypass stream in direction d. The
// network calls it when the stream's tail flit clears the first link
// (is forwarded across the flown-over router): the bypass latch — and
// therefore the neighbor's wake hold — is needed until then.
func (r *Router) BypassStreamRelease(d mesh.Direction) { r.bypassStreams[d]-- }

// SetFaultBypassIllegalTurn installs the bypass-admission defect; see
// config.Faults.BypassIllegalTurn.
func (r *Router) SetFaultBypassIllegalTurn(v bool) { r.faultBypassIllegalTurn = v }

// SetForwardHook registers the active-set scheduler's receiver-arming
// callback; see the forwardHook field.
func (r *Router) SetForwardHook(fn func(mesh.NodeID)) { r.forwardHook = fn }

// SetBus attaches an observability bus; see the bus field.
func (r *Router) SetBus(b *obs.Bus) { r.bus = b }

// emitStall publishes one KindPGStall event for a pipeline-ready flit
// denied switch traversal because the downstream router is gated or
// waking.
func (r *Router) emitStall(outPort int, vcIdx int, pkt *flit.Packet) {
	r.bus.Emit(obs.Event{
		Kind: obs.KindPGStall,
		Node: int32(r.ID),
		Dir:  int8(outPort),
		VC:   int16(vcIdx),
		Pkt:  pkt.ID,
		Dst:  int32(r.out[outPort].neighbor),
	})
}

// emitGrant publishes the KindSwitch (crossbar traversal) and, for
// inter-router outputs, KindLink (link departure) events for one
// granted flit.
func (r *Router) emitGrant(op *OutputPort, out *flit.Flit, outVC int) {
	tail := int64(0)
	if out.Type.IsTail() {
		tail = 1
	}
	r.bus.Emit(obs.Event{
		Kind: obs.KindSwitch,
		Node: int32(r.ID),
		Dir:  int8(op.dir),
		VC:   int16(outVC),
		Pkt:  out.Packet.ID,
		A:    tail,
	})
	if op.dir != mesh.Local && op.neighbor != mesh.Invalid {
		r.bus.Emit(obs.Event{
			Kind: obs.KindLink,
			Node: int32(r.ID),
			Dir:  int8(op.dir),
			VC:   int16(outVC),
			Pkt:  out.Packet.ID,
			Src:  int32(r.ID),
			Dst:  int32(op.neighbor),
		})
	}
}

// PunchEmitter receives one punch emission per resident packet head;
// core.Fabric implements it.
type PunchEmitter interface {
	EmitSource(cur, dst mesh.NodeID)
}

// EmitPunches emits one source punch per packet whose head flit is
// buffered in this router (level semantics: a stalled packet keeps
// punching every cycle), in VC key order and FIFO order within a VC.
// It reads the head-destination ring, never the flits themselves.
func (r *Router) EmitPunches(f PunchEmitter) {
	if r.buffered == 0 {
		return
	}
	for key := nextSet(r.occ, 0); key != -1; key = nextSet(r.occ, key+1) {
		v := &r.vcs[key]
		for i := 0; i < int(v.count); i++ {
			if d := r.dsts[v.slot(i)]; d != int32(mesh.Invalid) {
				f.EmitSource(r.ID, mesh.NodeID(d))
			}
		}
	}
}
