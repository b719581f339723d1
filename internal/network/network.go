// Package network assembles routers, links, network interfaces, the
// power-gating controllers, and the Power Punch fabric into a complete
// NoC over any topo.Topology (mesh, torus, or ring), and drives the
// synchronous cycle loop. All inter-component
// communication is latched: signals written in cycle t are visible in
// cycle t+1 (plus link latency), so component evaluation order within a
// cycle cannot leak information backwards.
package network

import (
	"fmt"
	"math/bits"

	"powerpunch/internal/check"
	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/ni"
	"powerpunch/internal/obs"
	"powerpunch/internal/pg"
	"powerpunch/internal/power"
	"powerpunch/internal/router"
	"powerpunch/internal/scheme"
	"powerpunch/internal/stats"
	"powerpunch/internal/topo"
	"powerpunch/internal/workset"
)

// Network is a complete simulated NoC.
type Network struct {
	Cfg config.Config
	// pol is Cfg.Scheme's policy, resolved once at construction; every
	// scheme-dependent branch in the tick loop consults it instead of
	// the deprecated config predicates.
	pol scheme.Policy
	// M is the fabric and RF its routing function (XY on the mesh,
	// dateline dimension-order routing on torus and ring).
	M       *topo.Topology
	RF      *topo.RoutingFunction
	Routers []*router.Router
	NIs     []*ni.NI
	Fabric  *core.Fabric // nil unless the scheme uses punch signals
	Acct    *power.Accountant
	Col     *stats.Collector

	// Checker is the invariant engine, non-nil when Cfg.Checks is set.
	Checker *check.Engine
	// OnViolation, if non-nil, receives the failure artifact of the
	// first invariant violation instead of the default behaviour
	// (write the artifact to a JSON file in the temp directory and
	// panic). Checking stops after the first violation either way.
	OnViolation func(*check.Artifact)

	now    int64
	pktSeq uint64

	// bus is the observability event bus, nil until Observe attaches a
	// sink.
	bus *obs.Bus

	// sched is the active-set tick scheduler (see sched.go). Under
	// Cfg.FullTick it keeps every node in the set, so Step walks every
	// node — the reference the active-set runs are differentially tested
	// against.
	sched *scheduler

	// Work summaries (DESIGN.md §8): dense bitsets kept current by the
	// state they summarize, so each phase walks active ∧ summary and
	// reads neighbour state from arrays small enough for L1. holds,
	// niBusy and pgLevel have one bit per node: the router buffers a
	// flit, the NI may hold work (a superset of NI.Busy), the controller
	// asserts PG. pipes has a 16-bit lane per node: bit p for the FlitOut
	// pipe of port p, bit pipeCredit+p for the CreditOut pipe of port p,
	// set while the pipe holds anything.
	holds, niBusy, pgLevel, pipes []uint64

	// pool recycles flit objects on the hot path. It is wired only when
	// Cfg.Checks is off: the invariant engine's stall tracking compares
	// flit pointers across cycles, which recycling would alias. Pooling
	// changes no simulation state either way.
	pool *flit.Pool

	// scratch buffers reused across cycles
	wants   [][mesh.NumPorts]bool
	wakeups []bool
	flitBuf []router.FlitInTransit
	credBuf []router.Credit

	// nbr caches each node's neighbour in every direction (Invalid where
	// the fabric has no link), replacing per-cycle coordinate arithmetic.
	nbr [][mesh.NumPorts]mesh.NodeID

	// bypassOn caches pol.Bypass(): the scheme lets flits fly over gated
	// routers on a latch path (FlyOver), enabling the bypass branches in
	// delivery, quiescence, and the controller-input computation.
	bypassOn bool
}

// New builds a network for cfg. The statistics collector measures packets
// created in [cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles);
// power accounting starts disabled (call SetAccounting or use Run).
func New(cfg config.Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rf, err := cfg.BuildRouting()
	if err != nil {
		return nil, err
	}
	m := rf.Topology()
	nNodes := m.NumNodes()

	acct := power.NewAccountant(nNodes, powerConstants(cfg))
	col := stats.New(cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles)

	pol, err := cfg.Scheme.Policy()
	if err != nil {
		// Unreachable after Validate, but keep the typed error path.
		return nil, err
	}

	var fab *core.Fabric
	if pol.Punches() {
		fab = core.NewFabric(rf, cfg.PunchHops, cfg.PunchStrict, acct)
	}

	n := &Network{
		Cfg:     cfg,
		pol:     pol,
		M:       m,
		RF:      rf,
		Acct:    acct,
		Col:     col,
		Fabric:  fab,
		wants:   make([][mesh.NumPorts]bool, nNodes),
		wakeups: make([]bool, nNodes),
		nbr:     make([][mesh.NumPorts]mesh.NodeID, nNodes),
	}
	for id := mesh.NodeID(0); m.Contains(id); id++ {
		for p := 0; p < mesh.NumPorts; p++ {
			n.nbr[id][p] = mesh.Invalid
		}
		for _, d := range mesh.LinkDirections {
			n.nbr[id][d] = m.Neighbor(id, d)
		}
	}

	timeout := cfg.IdleTimeout
	switch {
	case pol.Punches():
		// Punch signals forewarn arrivals precisely, so the blind timeout
		// filter shrinks to the 2-cycle in-flight minimum (Section 4.3).
		timeout = cfg.PunchIdleTimeout
	case !pol.IdleFilter():
		// Without the BET-oriented idle filter (Plain-PG), only the
		// 2-cycle in-flight minimum remains.
		timeout = 2
	}
	for id := mesh.NodeID(0); m.Contains(id); id++ {
		ctrl := pg.New(pol.Gates(), timeout, cfg.WakeupLatency, cfg.BreakEven)
		ctrl.SetAdaptiveThrottle(cfg.AdaptiveThrottle)
		rid := int(id)
		ctrl.SetHooks(nil, func() { acct.GatingEvent(rid) })
		r := router.New(id, rf, &n.Cfg, ctrl, acct)
		n.Routers = append(n.Routers, r)
		n.NIs = append(n.NIs, ni.New(id, m, &n.Cfg, r, fab, col))
	}
	n.trackWork()

	if pol.Bypass() {
		// Wire the through-paths: per router and link direction, the
		// flown-over neighbor's output port and controller plus the
		// landing router two hops out. Directions whose through-path
		// leaves the fabric (mesh edges) stay unwired and are simply
		// never bypass-eligible; torus/ring wrap links wire naturally.
		n.bypassOn = true
		be, _ := pol.(scheme.BypassEnergy)
		for id, r := range n.Routers {
			r.EnableBypass(be)
			for _, d := range mesh.LinkDirections {
				b := n.nbr[id][d]
				if b == mesh.Invalid {
					continue
				}
				c := n.nbr[b][d]
				if c == mesh.Invalid {
					continue
				}
				r.SetBypassWiring(d, n.Routers[b].Out(d), n.Routers[b].Ctrl, c, n.Routers[c].Ctrl)
			}
		}
	}

	n.sched = newScheduler(n, cfg.FullTick)
	for _, r := range n.Routers {
		r.SetForwardHook(n.sched.activateNode)
	}
	for i, nif := range n.NIs {
		id, busy := int32(i), workset.Of(n.niBusy, i)
		nif.SetActivityHook(func() {
			busy.Set()
			n.sched.activate(id, false)
		})
	}
	if !cfg.Checks {
		n.pool = flit.NewPool()
		for _, nif := range n.NIs {
			nif.SetPool(n.pool)
			nif.SetPacketRecycling(cfg.RecyclePackets)
		}
	}

	// Deliberate defects for exercising the invariant engine (and for
	// replaying artifacts captured from faulty runs).
	if cfg.Faults.IgnoreWakeups {
		for _, r := range n.Routers {
			r.Ctrl.SetFaultIgnoreWakeups(true)
		}
	}
	if cfg.Faults.DropPunchRelays && fab != nil {
		fab.SetFaultDropRelays(true)
	}
	n.sched.dropRearms = cfg.Faults.DropRearms
	if cfg.Faults.BypassIllegalTurn {
		for _, r := range n.Routers {
			r.SetFaultBypassIllegalTurn(true)
		}
	}

	if cfg.Checks {
		n.Checker = check.New(check.View{
			Cfg:     &n.Cfg,
			M:       m,
			RF:      rf,
			Routers: n.Routers,
			NIs:     n.NIs,
			Fabric:  fab,
		})
		for _, nif := range n.NIs {
			n.Checker.ObserveNI(nif)
		}
	}
	return n, nil
}

// pipeCredit is the offset of the CreditOut bits in a node's pipes lane.
const pipeCredit = 8

// pipeBit returns the index in Network.pipes of node i's bit b.
func pipeBit(i, b int) int { return 16*i + b }

// pipeLane returns node i's 16-bit lane of Network.pipes.
func (n *Network) pipeLane(i int) uint16 { return uint16(n.pipes[i>>2] >> (16 * (i & 3))) }

// trackWork allocates the work summaries and hands each router, pipe
// and controller its bit. NIs set their niBusy bit through the activity
// hook installed with the scheduler.
func (n *Network) trackWork() {
	nodes := len(n.Routers)
	w := (nodes + 63) / 64
	sum := make([]uint64, 3*w+(nodes+3)/4)
	n.holds, n.niBusy, n.pgLevel, n.pipes = sum[:w:w], sum[w:2*w:2*w], sum[2*w:3*w:3*w], sum[3*w:]
	for i, r := range n.Routers {
		r.TrackHolds(workset.Of(n.holds, i))
		r.Ctrl.TrackLevel(workset.Of(n.pgLevel, i))
		for p := 0; p < mesh.NumPorts; p++ {
			d := mesh.Direction(p)
			r.Out(d).FlitOut.Track(workset.Of(n.pipes, pipeBit(i, p)))
			r.In(d).CreditOut.Track(workset.Of(n.pipes, pipeBit(i, pipeCredit+p)))
		}
	}
}

// Close does nothing: a network holds no goroutines or other resources
// beyond memory.
//
// Deprecated: does nothing.
func (n *Network) Close() {}

// powerConstants resolves the configured calibration preset and adapts
// it to the configured break-even time. Unknown preset names are
// rejected by cfg.Validate before construction reaches here; the
// defensive fallback keeps direct callers on the paper calibration.
func powerConstants(cfg config.Config) power.Constants {
	c, ok := power.PresetByName(cfg.PowerPreset)
	if !ok {
		c = power.DefaultConstants()
	}
	c.BreakEvenCycles = cfg.BreakEven
	return c
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// NI returns node id's network interface.
func (n *Network) NI(id mesh.NodeID) *ni.NI { return n.NIs[id] }

// Router returns node id's router.
func (n *Network) Router(id mesh.NodeID) *router.Router { return n.Routers[id] }

// NextPacketID returns a fresh packet ID.
func (n *Network) NextPacketID() uint64 {
	n.pktSeq++
	return n.pktSeq
}

// NewPacket builds a packet with a fresh ID. Size is derived from kind
// via the configuration.
func (n *Network) NewPacket(src, dst mesh.NodeID, vn flit.VirtualNetwork, kind flit.Kind) *flit.Packet {
	size := n.Cfg.CtrlPacketSize
	if kind == flit.KindData {
		size = n.Cfg.DataPacketSize
	}
	var p *flit.Packet
	switch {
	case !n.Cfg.RecyclePackets:
		p = new(flit.Packet)
	default:
		p = n.pool.Packet() // nil pool (checked runs) falls back to new
	}
	p.ID = n.NextPacketID()
	p.Src, p.Dst = src, dst
	p.VN, p.Kind, p.Size = vn, kind, size
	p.ResourceHint = -1
	return p
}

// SetAccounting enables or disables energy accounting (typically enabled
// for exactly the measurement window). Parked nodes are synced through
// the previous cycle first so their deferred static charges land under
// the flag that was in force when the cycles elapsed.
func (n *Network) SetAccounting(v bool) {
	n.sched.syncAll(n.now - 1)
	n.Acct.SetEnabled(v)
}

// Step advances the network one cycle. Each phase iterates only the
// nodes that can change state this cycle: the active set (all nodes
// under Cfg.FullTick) intersected with the phase's work summary, since
// every call it skips is a no-op. Newly-armed nodes join at the flush
// points below, always before the first phase whose behaviour for them
// would differ from a no-op; every phase iterates in ascending node
// order, so the operation sequence — including floating-point
// accumulation order — matches the walk over every node with its no-op
// calls deleted.
func (n *Network) Step() {
	now := n.now
	s := n.sched
	if n.bus != nil {
		n.bus.SetNow(now)
	}

	// Arm nodes the driver submitted work to since the last cycle.
	s.flush(now)

	// 1. Deliver everything arriving this cycle (latched from earlier).
	n.deliver(now)
	// Ejection Deliver callbacks may have submitted follow-up work.
	s.flush(now)

	// 2. NI signalling: move announced messages along, emit injection-
	//    node punches (PowerPunch-PG slacks 1 and 2). An idle NI has
	//    nothing to signal.
	for i := s.nextIn(n.niBusy, 0); i != -1; i = s.nextIn(n.niBusy, i+1) {
		n.NIs[i].StepSignals(now)
	}

	// 3. Punch fabric: resident packets assert their punches (an empty
	//    router emits nothing); the fabric merges, holds, and relays (one
	//    link per cycle), and is skipped once no emission, inbound
	//    target, or hold remains. Nodes held by a punch must observe it
	//    in phase 7, so they join the set now.
	if n.Fabric != nil {
		for i := s.nextIn(n.holds, 0); i != -1; i = s.nextIn(n.holds, i+1) {
			n.Routers[i].EmitPunches(n.Fabric)
		}
		if n.Fabric.NeedsStep() {
			n.Fabric.Step()
			for _, id := range n.Fabric.Held() {
				s.activate(int32(id), true)
			}
			s.flush(now)
		}
	}

	// 4. Mask outputs whose downstream router asserts PG. Only the switch
	//    allocator of a router holding flits reads the masks, and nothing
	//    between here and phase 5 buffers a flit, so an empty router's
	//    stale masks are unobservable: it is masked again before it next
	//    holds a flit in phase 5.
	for i := s.nextIn(n.holds, 0); i != -1; i = s.nextIn(n.holds, i+1) {
		n.maskBlocked(i)
	}

	// 5. Router pipelines (ST then VA inside each router; an empty
	//    router's Step returns at once).
	for i := s.nextIn(n.holds, 0); i != -1; i = s.nextIn(n.holds, i+1) {
		n.Routers[i].Step(now)
	}

	// 6. NI injection (at most one flit per node per cycle). An NI found
	//    idle afterwards leaves niBusy until the activity hook sets it
	//    again. Receivers of freshly-pushed flits were armed by the
	//    forward hook; flush so they live through phases 7-8.
	for i := s.nextIn(n.niBusy, 0); i != -1; i = s.nextIn(n.niBusy, i+1) {
		nif := n.NIs[i]
		nif.StepInject(now)
		if !nif.Busy() {
			workset.Of(n.niBusy, int(i)).Clear()
		}
	}
	s.flush(now)

	// 7. Power-gating controllers observe this cycle's levels and step
	//    (arming WU-wanted neighbours themselves).
	n.stepControllers(now)

	// 8. Power accounting for live nodes; parked nodes accrue the same
	//    charges in batched catch-up when they re-arm (or eagerly below
	//    while the invariant engine is comparing counters).
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		n.Acct.TickStatic(int(i), routerPowerState(n.Routers[i].Ctrl))
	}
	n.Acct.TickCycle()

	// 9. Invariant engine: it reads every node's counters each cycle, so
	//    parked nodes must be charged eagerly while it runs.
	if n.Checker != nil {
		s.syncAll(now)
		if v := n.Checker.EndCycle(now); v != nil {
			n.reportViolation(v)
		}
	}

	s.endCycle(now)
	if n.bus != nil {
		n.bus.EndCycle()
	}
	n.now = now + 1
}

// maskBlocked refreshes router i's output masks from its neighbours' PG
// levels. A retired neighbour's controller is parked, so its pgLevel bit
// is already the state the full walk's mask phase would read.
func (n *Network) maskBlocked(i int32) {
	r := n.Routers[i]
	for _, d := range mesh.LinkDirections {
		if nb := n.nbr[i][d]; nb != mesh.Invalid {
			r.Out(d).Blocked = workset.Has(n.pgLevel, int(nb))
		}
	}
}

// reportViolation handles the invariant engine's first violation: hand
// the artifact to OnViolation when set, otherwise persist it next to the
// temp directory and panic with the replay instructions.
func (n *Network) reportViolation(v *check.Violation) {
	a := n.Checker.Artifact(v)
	if n.OnViolation != nil {
		n.OnViolation(a)
		return
	}
	path, err := check.WriteArtifactFile(a, "")
	where := "artifact could not be written: " + fmt.Sprint(err)
	if err == nil {
		where = "artifact written to " + path + " (replay: noctrace replay-failure -in " + path + ")"
	}
	panic(fmt.Sprintf("network: %v; %s", v, where))
}

// deliver drains every pipe with something in flight, node by node in
// ascending order and, within a node, its flit pipes before its credit
// pipes, each in ascending port order. Parked nodes own no non-empty
// pipes (quiescence drains them first), so the pipes summary alone
// names every pipe to drain. A bypass relay may push into a pipe the
// walk has passed or not yet reached; either way the push arrives next
// cycle, so draining it this cycle would be a no-op.
func (n *Network) deliver(now int64) {
	for w, word := range n.pipes {
		for word != 0 {
			lo := bits.TrailingZeros64(word) &^ 15
			n.deliverNode(w*4+lo/16, uint16(word>>lo), now)
			word &^= 0xffff << lo
		}
	}
}

// deliverNode drains node i's pipes named by lane (its pipes bits)
// whose contents arrive at cycle `now`: its output flit pipes into the
// downstream routers (or its NI on the Local port) and its input credit
// pipes back to the upstream routers (or its NI). Closure-free: items
// are drained into reused scratch buffers, keeping the per-cycle path
// allocation-free.
func (n *Network) deliverNode(i int, lane uint16, now int64) {
	rr := n.Routers[i]
	for ; lane != 0; lane &= lane - 1 {
		b := bits.TrailingZeros16(lane)
		if b < pipeCredit {
			d := mesh.Direction(b)
			op := rr.Out(d)
			if d == mesh.Local {
				nif := n.NIs[i]
				n.flitBuf = op.FlitOut.DrainAppend(now, n.flitBuf[:0])
				for _, ft := range n.flitBuf {
					nif.ReceiveEject(ft, now)
				}
				continue
			}
			nb := n.nbr[i][d]
			if nb == mesh.Invalid {
				continue
			}
			dst := n.Routers[nb]
			from := d.Opposite()
			n.flitBuf = op.FlitOut.DrainAppend(now, n.flitBuf[:0])
			for _, ft := range n.flitBuf {
				if ft.Bypass {
					n.forwardBypass(rr, d, ft, now)
					continue
				}
				dst.ReceiveFlit(from, ft.VC, ft.Flit, now)
			}
			continue
		}
		d := mesh.Direction(b - pipeCredit)
		ip := rr.In(d)
		if d == mesh.Local {
			nif := n.NIs[i]
			n.credBuf = ip.CreditOut.DrainAppend(now, n.credBuf[:0])
			for _, c := range n.credBuf {
				nif.ReceiveCredit(c.VC)
			}
			continue
		}
		nb := n.nbr[i][d]
		if nb == mesh.Invalid {
			continue
		}
		up := n.Routers[nb]
		toward := d.Opposite()
		n.credBuf = ip.CreditOut.DrainAppend(now, n.credBuf[:0])
		for _, c := range n.credBuf {
			up.ReceiveCredit(toward, c.VC)
		}
	}
}

// forwardBypass relays a bypass-tagged flit across the flown-over
// router: instead of entering the neighbor's buffers it is pushed
// (untagged) onto that router's own output pipe in the same direction,
// arriving at the landing router one cycle later — the 1-cycle latch
// path. The push targets the next cycle, so drain order within the
// delivery phase is immaterial. The sender's stream counter is
// released when the tail clears this first link: the latch (and the
// flown-over router's wake hold) is needed exactly until then.
func (n *Network) forwardBypass(from *router.Router, d mesh.Direction, ft router.FlitInTransit, now int64) {
	via := n.Routers[n.nbr[from.ID][d]]
	via.Out(d).FlitOut.Push(router.FlitInTransit{Flit: ft.Flit, VC: ft.VC}, now)
	if ft.Flit.Type.IsTail() {
		from.BypassStreamRelease(d)
	}
}

// bypassHeld reports whether any neighbor currently streams bypass
// flits over router i. It feeds the controller's BypassHold input,
// which only a Waking controller reads; a waking router is not parked,
// so it is never retired. Stream counters are written in the router
// phase and read here (phase 7).
func (n *Network) bypassHeld(i int) bool {
	for _, d := range mesh.LinkDirections {
		if nb := n.nbr[i][d]; nb != mesh.Invalid && n.Routers[nb].BypassStreams(d.Opposite()) > 0 {
			return true
		}
	}
	return false
}

// stepControllers computes the live controllers' inputs from this
// cycle's levels and advances their gating FSMs. A parked node's
// contribution is provably nil: it is empty (no WU wants, cleared on
// deactivation), its NI idle (no local WU), and its controller parked
// (Step is a no-op for disabled, and the Gated idle tick is applied by
// catch-up). The one coupling — a live neighbour's WU want toward a
// parked gated router — arms that router here, before the wakeup levels
// are read, so it wakes in the same cycle the full walk would wake it.
func (n *Network) stepControllers(now int64) {
	if !n.pol.Gates() {
		return
	}
	s := n.sched
	// WU levels: a router wants its neighbor awake while any resident
	// routed packet heads there — from route-computation time under
	// early wakeup (ConvOpt and the punch schemes), or only from
	// switch-allocation time under the unoptimized PlainPG baseline. An
	// empty router wants nothing, so its wants are zeroed untouched.
	early := n.pol.EarlyWakeup()
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		if !workset.Has(n.holds, int(i)) {
			n.wants[i] = [mesh.NumPorts]bool{}
			continue
		}
		r := n.Routers[i]
		if early {
			r.WantsOutput(&n.wants[i])
		} else {
			r.WantsOutputAtSA(&n.wants[i], now)
		}
		// Arm every wanted neighbour: it must observe the WU level this
		// cycle. (Arming is deferred to the flush below, so this pass
		// still iterates the pre-arm set.)
		for _, d := range mesh.LinkDirections {
			if n.wants[i][d] {
				if nb := n.nbr[i][d]; nb != mesh.Invalid {
					s.activate(int32(nb), true)
				}
			}
		}
	}
	s.flush(now)
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		// Only a busy NI can want its router awake.
		wu := workset.Has(n.niBusy, int(i)) && n.NIs[i].WantsWakeup()
		if !wu {
			for _, d := range mesh.LinkDirections {
				nb := n.nbr[i][d]
				if nb == mesh.Invalid {
					continue
				}
				// Neighbor nb reaches i through its port facing i.
				if n.wants[nb][d.Opposite()] {
					wu = true
					break
				}
			}
		}
		n.wakeups[i] = wu
	}
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		empty := !workset.Has(n.holds, int(i)) && n.incomingQuiet(i)
		hold := false
		if n.Fabric != nil {
			hold = n.Fabric.Hold(mesh.NodeID(i))
		}
		bhold := n.bypassOn && n.bypassHeld(int(i))
		if n.wakeups[i] && n.Acct.Enabled() {
			n.Acct.WakeupSignal(int(i))
		}
		n.Routers[i].Ctrl.Step(pg.Inputs{Empty: empty, Wakeup: n.wakeups[i], PunchHold: hold, BypassHold: bhold})
	}
}

// incomingQuiet reports that no flit is in flight toward node i (its
// neighbors' output pipes facing i are empty). Together with the >= 2
// cycle idle timeout this guarantees gating never strands a flit.
//
// Under a bypass scheme a second, two-hop condition applies: a stream
// established two hops out in direction d skips the intermediate
// router's buffers entirely, so the one-hop pipe check cannot see its
// flits coming — the landing router must stay up (and un-gated) for
// the stream's whole lifetime, including cycles when the stream is
// stalled upstream with nothing physically in flight.
func (n *Network) incomingQuiet(i int32) bool {
	for _, d := range mesh.LinkDirections {
		nb := n.nbr[i][d]
		if nb == mesh.Invalid {
			continue
		}
		if workset.Has(n.pipes, pipeBit(int(nb), int(d.Opposite()))) {
			return false
		}
		if n.bypassOn {
			if a := n.nbr[nb][d]; a != mesh.Invalid && n.Routers[a].BypassStreams(d.Opposite()) > 0 {
				return false
			}
		}
	}
	return true
}

func routerPowerState(c *pg.Controller) power.RouterState {
	switch c.State() {
	case pg.Gated:
		return power.Gated
	case pg.Waking:
		return power.WakingUp
	default:
		return power.On
	}
}

// Quiesced reports whether no packet or flit remains anywhere in the
// network or its NIs.
func (n *Network) Quiesced() bool {
	for _, w := range n.holds {
		if w != 0 {
			return false
		}
	}
	const flitPipes = (1<<mesh.NumPorts - 1) * 0x0001_0001_0001_0001 // the FlitOut bits of a word's four lanes
	for _, w := range n.pipes {
		if w&flitPipes != 0 {
			return false
		}
	}
	for i := workset.Next(n.niBusy, 0); i != -1; i = workset.Next(n.niBusy, i+1) {
		if n.NIs[i].Busy() {
			return false
		}
	}
	return true
}

// SyncInspection catches every retired node's controller and power
// counters up through the previous cycle, so direct reads of router or
// controller state (heatmaps, tests, ad-hoc probes) observe exactly
// what the full walk would hold. A no-op under Cfg.FullTick; it never
// re-arms a node.
func (n *Network) SyncInspection() {
	n.sched.syncAll(n.now - 1)
}

// GatedRouterCount returns the number of routers currently gated off.
func (n *Network) GatedRouterCount() int {
	c := 0
	for _, r := range n.Routers {
		if r.Ctrl.State() == pg.Gated {
			c++
		}
	}
	return c
}

// CheckInvariants panics with a description if a structural invariant is
// violated; tests call it periodically.
//
// Invariants checked:
//  1. a gated or waking router holds no flits (gating requires empty);
//  2. credit conservation on every inter-router link: for each VC,
//     available credits + downstream buffer occupancy + flits on the
//     wire + credits on the reverse wire == buffer depth;
//  3. the work summaries match the objects they summarize: holds is
//     !Empty, each pipes bit is its pipe's !Empty, pgLevel is
//     PGAsserted, and niBusy covers every busy NI;
//  4. every node outside the active set and not pending has a parked
//     PG controller, so its state and pgLevel bit are exact.
func (n *Network) CheckInvariants() {
	n.SyncInspection()
	for _, r := range n.Routers {
		if !r.Ctrl.IsOn() && !r.Empty() {
			panic(fmt.Sprintf("network: router %d is %v with %d buffered flits",
				r.ID, r.Ctrl.State(), r.BufferedFlits()))
		}
	}
	n.checkWorkSets()
	for i, in := range n.sched.inSet {
		if c := n.Routers[i].Ctrl; !in && !c.Parked() {
			panic(fmt.Sprintf("network: node %d is retired with its controller %v", i, c.State()))
		}
	}
	perVN := n.Cfg.VCsPerVN()
	for _, a := range n.Routers {
		for _, d := range mesh.LinkDirections {
			op := a.Out(d)
			nb := op.Neighbor()
			if nb == mesh.Invalid {
				continue
			}
			b := n.Routers[nb]
			from := d.Opposite()
			for v := 0; v < a.NumVCs(); v++ {
				inFlightFlits := 0
				op.FlitOut.ForEach(func(ft router.FlitInTransit) {
					// Bypass-tagged flits in this pipe are charged
					// against the *through* link's ledger (their VC
					// names the router two hops out), not this one.
					if ft.VC == v && !ft.Bypass {
						inFlightFlits++
					}
				})
				thruFlits := 0
				if n.bypassOn {
					if up := n.nbr[a.ID][from]; up != mesh.Invalid {
						n.Routers[up].Out(d).FlitOut.ForEach(func(ft router.FlitInTransit) {
							if ft.Bypass && ft.VC == v {
								thruFlits++
							}
						})
					}
				}
				inFlightCredits := 0
				b.In(from).CreditOut.ForEach(func(c router.Credit) {
					if c.VC == v {
						inFlightCredits++
					}
				})
				total := op.Credits(v) + b.VCOccupancy(from, v) + inFlightFlits + thruFlits + inFlightCredits
				if depth := n.Cfg.VCDepth(v % perVN); total != depth {
					panic(fmt.Sprintf("network: credit leak on %d->%d vc%d: credits=%d + buf=%d + wire=%d + thru=%d + credwire=%d != depth %d",
						a.ID, nb, v, op.Credits(v), b.VCOccupancy(from, v), inFlightFlits, thruFlits, inFlightCredits, depth))
				}
			}
		}
	}
}

// checkWorkSets panics when a work summary bit disagrees with the state
// it summarizes (CheckInvariants' third invariant).
func (n *Network) checkWorkSets() {
	stale := func(what string, id mesh.NodeID, bit bool) {
		panic(fmt.Sprintf("network: %s bit of node %d is %v, the state it summarizes is not", what, id, bit))
	}
	for i, r := range n.Routers {
		if bit := workset.Has(n.holds, i); bit == r.Empty() {
			stale("holds", r.ID, bit)
		}
		if bit := workset.Has(n.pgLevel, i); bit != r.Ctrl.PGAsserted() {
			stale("pgLevel", r.ID, bit)
		}
		if n.NIs[i].Busy() && !workset.Has(n.niBusy, i) {
			stale("niBusy", r.ID, false)
		}
		for p := 0; p < mesh.NumPorts; p++ {
			d := mesh.Direction(p)
			if bit := workset.Has(n.pipes, pipeBit(i, p)); bit == r.Out(d).FlitOut.Empty() {
				stale("FlitOut pipe "+d.String(), r.ID, bit)
			}
			if bit := workset.Has(n.pipes, pipeBit(i, pipeCredit+p)); bit == r.In(d).CreditOut.Empty() {
				stale("CreditOut pipe "+d.String(), r.ID, bit)
			}
		}
	}
}

// Driver injects traffic into the network: Tick is called once per cycle
// before Step, and Done reports whether the driver has finished its
// workload (synthetic drivers never finish; CMP workloads do).
type Driver interface {
	Tick(n *Network, now int64)
	Done() bool
}

// RunResult summarizes a complete simulation run. Detail carries the
// versioned per-stage decomposition (see RunDetail); the whole struct
// is a flat comparable value, so runs can be compared with ==.
type RunResult struct {
	Cycles       int64
	Summary      stats.Summary
	Energy       power.Breakdown
	AvgStaticW   float64
	StaticSaved  float64
	Drained      bool
	GatingEvents int64
	Detail       RunDetail
}

// Run executes the standard windowed experiment: warmup, measurement
// (with energy accounting), then drain until every measured packet is
// delivered or the drain budget expires. The driver is ticked every
// cycle of warmup+measurement.
func (n *Network) Run(d Driver) RunResult {
	warmEnd := n.Cfg.WarmupCycles
	measEnd := warmEnd + n.Cfg.MeasureCycles
	for n.now < warmEnd {
		d.Tick(n, n.now)
		n.Step()
	}
	n.SetAccounting(true)
	for n.now < measEnd {
		d.Tick(n, n.now)
		n.Step()
	}
	n.SetAccounting(false)

	drainEnd := measEnd + n.Cfg.DrainCycles
	drained := true
	for n.Col.InFlight() > 0 || !n.Quiesced() {
		if n.now >= drainEnd {
			drained = false
			break
		}
		n.Step()
	}
	return n.result(drained)
}

// RunUntil drives the network until the driver reports done and the
// network quiesces (execution-time experiments), up to maxCycles.
// Accounting is enabled for the whole run.
func (n *Network) RunUntil(d Driver, maxCycles int64) RunResult {
	n.SetAccounting(true)
	drained := true
	for !d.Done() || !n.Quiesced() {
		if n.now >= maxCycles {
			drained = false
			break
		}
		d.Tick(n, n.now)
		n.Step()
	}
	n.SetAccounting(false)
	return n.result(drained)
}

func (n *Network) result(drained bool) RunResult {
	n.sched.syncAll(n.now - 1)
	var gatings int64
	for _, r := range n.Routers {
		gatings += r.Ctrl.Stats().GatingEvents
	}
	return RunResult{
		Cycles:       n.now,
		Summary:      n.Col.Summarize(),
		Energy:       n.Acct.Network(),
		AvgStaticW:   n.Acct.AvgStaticPower(),
		StaticSaved:  n.Acct.StaticSavedFrac(),
		Drained:      drained,
		GatingEvents: gatings,
		Detail:       n.detail(),
	}
}
