package network

import (
	"powerpunch/internal/mesh"
	"powerpunch/internal/workset"
)

// scheduler is the active-set tick scheduler: the network's answer to the
// paper's own observation that most routers are idle most of the time.
// Instead of walking all N nodes every cycle, Step iterates only the
// nodes that can change state this cycle — a node is a router together
// with its NI. A node leaves the set when it is provably quiescent
// (nothing buffered, nothing in flight in or out, NI idle, controller
// parked) and re-enters when a wakeup source touches it: a local
// injection, a flit pushed toward it, a punch hold naming it, or a
// neighbour's WU level wanting it awake.
//
// The set is a bitset over node IDs: iteration walks set bits in
// ascending order (the full-walk iteration order) with no sorting, and
// arming or retiring a node is a single bit operation. Mid-cycle
// activations go through a pending list first and join the set only at
// the explicit flush points in Step, so a phase never observes a
// node armed while that phase was already iterating.
//
// Quiescence includes the PG controller: a node retires only once its
// controller is parked — Gated, or disabled under No-PG. Both are fixed
// points under the inputs a quiescent datapath pins (Empty, no WU, no
// punch; a bypass hold is read only while Waking), so skipping a
// retired node's Step changes nothing: its State(), pgLevel bit and
// Stats stay exact while it sleeps, and the accountant charges its
// static power from the network's gated count every cycle. A
// controller still counting idle, draining or waking keeps its node
// live, so every transition happens in the live controller pass at its
// true cycle. Active-set runs are therefore bit-identical to
// Config.FullTick full-walk runs; the golden-metrics tests assert it.
//
// Under Config.FullTick the scheduler is pinned: no node ever leaves
// the set, so every phase walks every node (intersected with its work
// summary). That full walk is the reference the active-set runs are
// differentially tested against.
type scheduler struct {
	n      *Network
	pinned bool // Config.FullTick: never retire a node

	inSet   []bool   // per node: in the set or pending (activation guard)
	active  []uint64 // bitset over node IDs: the current active set
	pending []int32  // armed since the last flush, not yet in active

	// nodeSteps[i] counts the cycles node i spent in the active set
	// (instrumentation for the edge-case tests).
	nodeSteps []int64

	// dropRearms implements config.Faults.DropRearms: droppable re-arm
	// events (pushes, punch holds, WU wants) are discarded, proving the
	// invariant engine catches a lost-wakeup scheduler bug. Local
	// injections are never droppable — work must enter for the bug to be
	// observable.
	dropRearms    bool
	droppedRearms int64
}

func newScheduler(n *Network, pinned bool) *scheduler {
	nNodes := n.M.NumNodes()
	s := &scheduler{
		n:         n,
		pinned:    pinned,
		inSet:     make([]bool, nNodes),
		active:    make([]uint64, (nNodes+63)/64),
		pending:   make([]int32, 0, nNodes),
		nodeSteps: make([]int64, nNodes),
	}
	// Every node starts active: PG controllers begin in Active and must
	// step to count idle cycles toward the gating decision; quiescent
	// nodes fall out of the set on their own.
	for i := 0; i < nNodes; i++ {
		s.inSet[i] = true
		s.active[i>>6] |= 1 << (i & 63)
	}
	return s
}

// next returns the smallest active node ID >= from, or -1. Ascending
// bit order is the full-walk iteration order; every phase loops
// `for i := s.next(0); i != -1; i = s.next(i + 1)`.
func (s *scheduler) next(from int32) int32 { return int32(workset.Next(s.active, int(from))) }

// nextIn returns the smallest active node ID >= from whose bit is set in
// the work summary set, or -1: the phases' walk over active ∧ summary.
func (s *scheduler) nextIn(set []uint64, from int32) int32 {
	return int32(workset.NextAnd(s.active, set, int(from)))
}

// activate arms node i. droppable marks re-arm events the DropRearms
// fault may discard; injections of new work pass false.
func (s *scheduler) activate(i int32, droppable bool) {
	if s.inSet[i] {
		return
	}
	if droppable && s.dropRearms {
		s.droppedRearms++
		return
	}
	s.inSet[i] = true
	s.pending = append(s.pending, i)
}

// activateNode is the router forward-hook shape of activate.
func (s *scheduler) activateNode(id mesh.NodeID) { s.activate(int32(id), true) }

// flush moves pending activations into the active set.
func (s *scheduler) flush() {
	for _, i := range s.pending {
		s.active[i>>6] |= 1 << (i & 63)
	}
	s.pending = s.pending[:0]
}

// quiescent reports whether node i can leave the active set: no flit
// buffered, NI holding no work, nothing in flight in its outgoing flit
// and credit pipes, no flit in flight toward it — all read from the
// work summaries (niBusy is exact here: phase 6 cleared it for every
// idle NI it stepped) — and its PG controller parked. Every event that
// would change a parked controller's idle inputs — flit push, punch
// hold, WU want, local injection — re-arms the node before the
// controller could observe it.
// Nodes pinned by a level signal — a punch hold or a neighbour's WU
// want — are kept in the set even when structurally idle: the level's
// source would re-arm them next cycle anyway, so retiring them would
// only churn the pending list.
func (s *scheduler) quiescent(i int32) bool {
	n := s.n
	if workset.Has(n.holds, int(i)) || workset.Has(n.niBusy, int(i)) || n.pipeLane(int(i)) != 0 {
		return false
	}
	if !n.Routers[i].Ctrl.Parked() {
		return false
	}
	if n.Fabric != nil && n.Fabric.Hold(mesh.NodeID(i)) {
		return false
	}
	for _, d := range mesh.LinkDirections {
		if nb := n.nbr[i][d]; nb != mesh.Invalid && n.wants[nb][d.Opposite()] {
			return false
		}
	}
	return n.incomingQuiet(i)
}

// endCycle counts the cycle for every live node and retires the
// quiescent ones from the active set. Retired nodes clear their WU
// wants (a parked node is empty, so the full walk would compute
// all-false wants for it).
func (s *scheduler) endCycle() {
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		s.nodeSteps[i]++
		if !s.pinned && s.quiescent(i) {
			s.inSet[i] = false
			s.active[i>>6] &^= 1 << (i & 63)
			s.n.wants[i] = [mesh.NumPorts]bool{}
		}
	}
}

// empty reports whether the active set and the pending list hold nothing.
func (s *scheduler) empty() bool {
	if len(s.pending) > 0 {
		return false
	}
	for _, w := range s.active {
		if w != 0 {
			return false
		}
	}
	return true
}

// NodeSteps returns the number of cycles node id spent in the active set
// (under FullTick every node steps every cycle, so Now()).
func (n *Network) NodeSteps(id mesh.NodeID) int64 { return n.sched.nodeSteps[id] }

// ActiveNodes returns a snapshot of the active set (armed-but-pending
// nodes included) in ascending order; nil under FullTick, where the
// concept does not apply.
func (n *Network) ActiveNodes() []mesh.NodeID {
	if n.sched.pinned {
		return nil
	}
	s := n.sched
	out := make([]mesh.NodeID, 0, 16)
	for i := range s.inSet {
		if s.inSet[i] {
			out = append(out, mesh.NodeID(i))
		}
	}
	return out
}

// DroppedRearms returns the number of re-arm events discarded by the
// DropRearms fault.
func (n *Network) DroppedRearms() int64 { return n.sched.droppedRearms }
