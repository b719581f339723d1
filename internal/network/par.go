package network

// The deterministic sharded parallel tick engine (DESIGN.md §11, §16).
//
// Config.Workers > 1 selects this engine. The node set is split into
// contiguous "homes", one per worker; each home owns its routers, NIs,
// per-home commit buffers (punch ops, obs events, scheduler arms,
// Deliver callbacks, pool returns), an obs recorder lane, a statistics
// lane, and a flit/packet pool. Ownership never moves. What does move,
// cycle to cycle, is the *execution grouping*: the homes are
// partitioned into k contiguous groups balanced by active-set
// occupancy, and each group is executed by one goroutine (the
// coordinator runs group 0 inline; group g >= 1 runs on the goroutine
// of its first home, which walks the group's homes in ascending
// order). Asleep regions therefore cost zero worker wakeups: with few
// active nodes k collapses to 1 and the coordinator runs everything
// inline with no atomics, and with none it skips the section outright.
//
// The result is bit-identical to the serial engines — including
// floating-point accumulation order, event order, and statistics
// sample order — because
//
//   - every mutation inside a worker section touches only state with a
//     single writer (own routers/NIs, own scratch, the uniquely-paired
//     link pipes and credit counters across a port),
//   - every cross-home effect is captured in per-home buffers and
//     replayed by the coordinator in home-major order — which, with
//     contiguous homes, is exactly the serial engines' ascending-node
//     order, independent of how homes were grouped for execution, and
//   - re-grouping happens only at deterministic points (cycle top and
//     after an arming flush), is a pure function of the active set, and
//     never changes which home a node commits through.
//
// Section fusion (active-set form; FullTick is the same minus the
// scheduler interactions). The serial engine's nine phases compress
// into three sections, so a gating cycle pays at most three rendezvous
// and a non-gating cycle at most two:
//
//	coordinator  flush + halo-sync + regroup
//	section A    pull-deliver flits, push credits, eject
//	coordinator  replay bypass forwards, eject events, Deliver
//	             calls, flush (+regroup)
//	section B    NI punch signals, router punch emission (deferred),
//	             mask, router pipelines, NI injection, WU want levels
//	             (+wanted-neighbour arms) — or, for non-gating schemes,
//	             the static-power ticks
//	coordinator  replay punch ops into the real fabric, Fabric.Step,
//	             replay pipeline+inject events, replay arms, flush
//	             (+regroup); non-gating: straggler static ticks
//	section C    wakeup levels, PG controller steps, static-power
//	             ticks (gating schemes only)
//	coordinator  replay controller events, TickCycle, merge dirty
//	             collector lanes, drain flit returns, invariant
//	             checks, endCycle
//
// Why the fusions are sound:
//
//   - Signals/emission fuse into B because StepSignals emits no bus
//     events and every punch-fabric call is deferred through the sink;
//     the fabric itself steps on the coordinator after B, and nothing
//     in B reads fabric state (controller inputs read Fabric.Hold in
//     C). Float order per router is preserved because PunchHop charges
//     only the Overhead accumulator while B's pipeline events charge
//     only Dynamic, and the other Overhead writers (WakeupSignal,
//     GatingEvent) run in C, after the fabric replay — per-field
//     accumulation order is exactly serial.
//   - Want levels fuse into B because WantsOutput reads only the own
//     router's post-pipeline state (serial computes it after all of
//     phases 4-6; per-node state is the same either way) and
//     controllers are frozen until C. Nodes armed between B and C
//     never ran B, but the serial engine computes all-false wants for
//     them (they are empty), which is exactly the cleared value their
//     retirement left behind.
//   - Nodes armed by the fabric's Held list miss B's mask/pipeline/
//     inject, but a just-armed node is empty (pushes land next cycle),
//     so those phases are strict no-ops for it and its stale masks are
//     refreshed before its switch allocator could ever use them.
//
// Rendezvous. Dispatch uses a per-worker sense counter (slot) plus a
// park flag instead of channel round-trips: the coordinator publishes
// the group range, bumps the slot, and sends a wake token only if the
// worker declared itself parked; the worker spins briefly (yielding),
// then parks on its buffered channel. Under Go's sequentially
// consistent atomics the worker's parkFlag store precedes its slot
// re-check and the coordinator's slot bump precedes its parkFlag read,
// so one side always sees the other — at worst one stale token is
// consumed and re-checked. Completion is a single shared countdown.
//
// Scheduler composition. Instead of eagerly syncing every parked node
// every cycle (O(n), which would dominate at 64x64), the coordinator
// catches up only the *halo*: the 1-hop neighbours (plus the 2-hop
// through-path when a bypass scheme is on) of every node entering a
// section, at the cycle top and at every arming flush. That is the
// complete set of parked-FSM reads inside sections (maskBlocked's
// PGAsserted, the bypass admission/suppression controller reads);
// section C reads no parked neighbour FSMs at all. The in-section
// catchUp calls therefore stay read-only early returns, and everything
// else syncs lazily exactly as the serial active-set engine does.
//
// Dirty homes. A home is dirty when any of its nodes is in the active
// set or was armed this cycle; regrouping and arming flushes maintain
// the flag, and the cycle top resets last cycle's dirty recorders (so
// a clean home always has an empty recorder and zero marks). Event
// replay, collector merging, and flit-return draining all skip clean
// homes, so per-cycle commit cost scales with the work done, not with
// the worker count.
//
// Flit and packet pools are per home. Packets are keyed by the owner
// of their destination on both ends (NewPacket draws from the dst
// owner's pool; the dst NI returns them), a closed loop. Flit objects
// are keyed by the owner of their source (injection draws them); at
// ejection the destination home defers each flit into a per-home-pair
// return queue and the coordinator drains the queues in fixed
// (target, source) order — so steady state allocates nothing under any
// traffic pattern, and pool state stays deterministic.

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/ni"
	"powerpunch/internal/obs"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
	"powerpunch/internal/stats"
)

// Section identifiers dispatched to workers.
const (
	secExit int32 = iota
	secDeliver
	secMain
	secCtrl
)

// defaultParGrain is the occupancy-aware grouping grain: one execution
// group is spun up per ~grain active nodes (clamped to the home
// count), so a handful of awake routers never pays a worker dispatch.
// Tests override the engine's grain field to pin specific shapes.
const defaultParGrain = 32

// punchOp is one deferred punch-fabric call.
type punchOp struct {
	kind uint8
	a, b mesh.NodeID
}

const (
	opEmitLocal uint8 = iota
	opHoldLocal
	opEmitSource
)

// punchSink is one home's punch-fabric facade. During a section it
// defers every call into the home's op buffers (sigOps for the NI
// signal phase, emitOps for the router emission phase) for home-major
// replay into the real fabric. Outside sections — driver-time Announce
// and Submit paths — it forwards directly, preserving the serial
// engine's event stamping (driver-time punch events carry the previous
// cycle's stamp because SetNow has not run yet).
type punchSink struct{ w *parWorker }

func (ps *punchSink) EmitLocal(src, dst mesh.NodeID) {
	if !ps.w.eng.inSection {
		ps.w.eng.n.Fabric.EmitLocal(src, dst)
		return
	}
	ps.w.sigOps = append(ps.w.sigOps, punchOp{opEmitLocal, src, dst})
}

func (ps *punchSink) HoldLocal(n mesh.NodeID) {
	if !ps.w.eng.inSection {
		ps.w.eng.n.Fabric.HoldLocal(n)
		return
	}
	ps.w.sigOps = append(ps.w.sigOps, punchOp{opHoldLocal, n, n})
}

func (ps *punchSink) EmitSource(cur, dst mesh.NodeID) {
	ps.w.emitOps = append(ps.w.emitOps, punchOp{opEmitSource, cur, dst})
}

// flitSink routes an ejected flit back toward the pool of the home
// that owns the flit's source node, via the ejecting home's per-pair
// return queue (drained by the coordinator in fixed order).
type flitSink struct{ w *parWorker }

func (fs *flitSink) RecycleFlit(f *flit.Flit, src mesh.NodeID) {
	tw := fs.w.eng.ownerOf[src]
	fs.w.flitRet[tw] = append(fs.w.flitRet[tw], f)
}

// deferredDeliver is one buffered NI Deliver callback.
type deferredDeliver struct {
	nif *ni.NI
	p   *flit.Packet
	at  int64
}

// bypassFwd is one deferred bypass relay (bypass schemes only): a
// tagged flit drained from the first link that must be pushed onto the
// flown-over router's own output pipe. The push cannot happen inside
// the delivery section — the receiver's home would write a pipe the
// landing router's home may be draining — so it is buffered here and
// replayed by the coordinator after the section A rendezvous.
type bypassFwd struct {
	from mesh.NodeID    // sender whose stream counter releases at the tail
	via  mesh.NodeID    // flown-over router carrying the second link
	dir  mesh.Direction // travel direction
	ft   router.FlitInTransit
}

// parWorker is one home: a contiguous node range plus its commit lanes
// and, for homes 1..nw-1, a worker goroutine that executes whatever
// group of homes the coordinator assigns it.
type parWorker struct {
	eng    *parEngine
	id     int
	lo, hi int32 // owned node range [lo, hi)

	// Rendezvous state. slot is the sense counter the goroutine waits
	// on; runLo/runHi is the home range of the assigned group,
	// published before the slot bump. parkFlag tells the coordinator a
	// wake token is needed.
	slot     atomic.Uint64
	parkFlag atomic.Int32
	runLo    int32
	runHi    int32
	wakeCh   chan struct{}

	// Lane sinks: events, statistics, flit/packet pool.
	rec  *obs.Recorder    // nil without an observer
	bus  *obs.Bus         // lane bus feeding rec; nil without an observer
	col  *stats.Collector // lane collector, merged each cycle
	pool *flit.Pool       // nil on checked runs

	sink    punchSink
	flitRec flitSink
	sigOps  []punchOp
	emitOps []punchOp
	arms    []mesh.NodeID
	delivs  []deferredDeliver
	bypFwd  []bypassFwd
	flitRet [][]*flit.Flit // indexed by target home
	marks   [4]int         // recorder cuts: A, B-router, B-inject, C

	// Per-home drain scratch (the parallel deliverNode).
	flitBuf []router.FlitInTransit
	credBuf []router.Credit

	panicked   bool
	panicVal   any
	panicStack []byte
}

// parEngine drives the worker pool. It lives on the Network when
// Config.Workers > 1.
type parEngine struct {
	n       *Network
	workers []*parWorker
	ownerOf []int32 // node -> home
	gates   bool    // pol.Gates(), resolved once

	realBus *obs.Bus // set by Observe; replay target

	// inSection tells the punch sinks whether to defer (worker context)
	// or forward (driver/coordinator context). Written by the
	// coordinator only, outside sections; the dispatch atomics order it
	// for the workers.
	inSection bool

	// Occupancy-aware grouping state (see regroupNow). groups holds the
	// first home of each execution group; cnt the per-home active-node
	// counts it was derived from. dirty marks homes with work this
	// cycle; regroup requests a re-partition at the next section edge.
	grain      int
	cnt        []int
	groups     []int32
	dirty      []bool
	regroup    bool
	lastKeep   bool
	stragglers []int32

	// Rendezvous instrumentation (tests and DESIGN.md numbers):
	// sections dispatched to at least one worker goroutine, sections
	// the coordinator ran inline (k == 1), and sections skipped
	// outright (k == 0).
	nDispatch int64
	nInline   int64
	nSkip     int64

	// Dispatch state. sect and cycle are plain fields published to the
	// workers by the per-worker slot bumps; joins counts outstanding
	// groups.
	sect   int32
	cycle  int64
	joins  atomic.Int32
	doneCh chan struct{}

	closed bool
	wg     sync.WaitGroup
}

func newParEngine(n *Network, workers int) *parEngine {
	nNodes := n.M.NumNodes()
	nw := workers
	if nw > nNodes {
		nw = nNodes
	}
	e := &parEngine{
		n:      n,
		gates:  n.pol.Gates(),
		grain:  defaultParGrain,
		doneCh: make(chan struct{}, 1),
	}
	e.ownerOf = make([]int32, nNodes)
	base, rem := nNodes/nw, nNodes%nw
	lo := 0
	for wid := 0; wid < nw; wid++ {
		size := base
		if wid < rem {
			size++
		}
		w := &parWorker{
			eng:    e,
			id:     wid,
			lo:     int32(lo),
			hi:     int32(lo + size),
			wakeCh: make(chan struct{}, 1),
			col:    stats.New(n.Col.MeasureStart, n.Col.MeasureEnd),
		}
		w.sink.w = w
		w.flitRec.w = w
		for i := lo; i < lo+size; i++ {
			e.ownerOf[i] = int32(wid)
		}
		e.workers = append(e.workers, w)
		lo += size
	}
	for _, w := range e.workers {
		w.flitRet = make([][]*flit.Flit, nw)
	}
	e.cnt = make([]int, nw)
	e.groups = make([]int32, 0, nw+1)
	e.dirty = make([]bool, nw)
	e.stragglers = make([]int32, 0, nNodes)
	e.lastKeep = e.workers[0].col.KeepingSamples()
	if n.sched == nil {
		// FullTick: every node steps every cycle, so the grouping is
		// static — one group per home, all dispatched — and every home
		// is permanently dirty.
		for h := range e.workers {
			e.groups = append(e.groups, int32(h))
			e.dirty[h] = true
		}
	}

	for i, nif := range n.NIs {
		w := e.workers[e.ownerOf[i]]
		nif.SetCollector(w.col)
		if n.Fabric != nil {
			nif.SetPunchFabric(&w.sink)
		}
		nif := nif
		nif.SetDeliverDefer(func(p *flit.Packet, at int64) {
			w.delivs = append(w.delivs, deferredDeliver{nif, p, at})
		})
	}
	if !n.Cfg.Checks {
		for _, w := range e.workers {
			w.pool = flit.NewPool()
		}
		for i, nif := range n.NIs {
			w := e.workers[e.ownerOf[i]]
			nif.SetPool(w.pool)
			nif.SetFlitRecycler(&w.flitRec)
			nif.SetPacketRecycling(n.Cfg.RecyclePackets)
		}
	}
	if n.sched != nil {
		for i, r := range n.Routers {
			w := e.workers[e.ownerOf[i]]
			r.SetForwardHook(func(id mesh.NodeID) { w.arms = append(w.arms, id) })
		}
	}

	for _, w := range e.workers[1:] {
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	return e
}

// installLaneBuses gives every home a recording lane bus and points
// the routers, PG controllers, and NIs of its range at it; the punch
// fabric keeps the real bus (its emissions already happen on the
// coordinator, in serial order). Called by Observe.
func (e *parEngine) installLaneBuses(real *obs.Bus) {
	e.realBus = real
	n := e.n
	for _, w := range e.workers {
		w.rec = &obs.Recorder{}
		w.bus = obs.NewBus(real.Meta())
		w.bus.Attach(w.rec)
		for i := w.lo; i < w.hi; i++ {
			n.Routers[i].SetBus(w.bus)
			n.Routers[i].Ctrl.SetBus(w.bus, i)
			n.NIs[i].SetBus(w.bus)
		}
	}
}

// Close shuts the worker goroutines down. Idempotent; the engine is
// unusable afterwards.
func (e *parEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if len(e.workers) > 1 {
		e.sect = secExit
		for _, w := range e.workers[1:] {
			w.slot.Add(1)
			select {
			case w.wakeCh <- struct{}{}:
			default:
			}
		}
		e.wg.Wait()
	}
}

// workerLoop is the body of homes 1..nw-1's goroutines: wait for a
// slot bump, run the assigned group of homes in ascending order, join.
// Waiting spins briefly (yielding) before declaring itself parked and
// blocking on the wake channel; the parkFlag/slot protocol (see the
// file comment) makes the park race-free, with at worst one stale
// token consumed and re-checked.
func (e *parEngine) workerLoop(w *parWorker) {
	defer e.wg.Done()
	var seen uint64
	for {
		for spins := 0; w.slot.Load() == seen; spins++ {
			if spins < 128 {
				runtime.Gosched()
				continue
			}
			w.parkFlag.Store(1)
			if w.slot.Load() != seen {
				w.parkFlag.Store(0)
				break
			}
			<-w.wakeCh
			w.parkFlag.Store(0)
			spins = 0
		}
		seen = w.slot.Load()
		if e.sect == secExit {
			return
		}
		sec, now := e.sect, e.cycle
		for h := w.runLo; h < w.runHi; h++ {
			e.workers[h].run(sec, now)
		}
		if e.joins.Add(-1) == 0 {
			select {
			case e.doneCh <- struct{}{}:
			default:
			}
		}
	}
}

// runSection executes one section under the current grouping: skipped
// when no group has work, inline on the coordinator when one group
// suffices, otherwise group 0 inline with groups 1..k-1 dispatched to
// the goroutines of their first homes. Worker panics are re-raised on
// the caller's goroutine (lowest home first).
func (e *parEngine) runSection(sec int32, now int64) {
	ng := len(e.groups)
	if ng == 0 {
		e.nSkip++
		return
	}
	nw := len(e.workers)
	e.sect, e.cycle = sec, now
	if ng == 1 {
		e.nInline++
		for h := 0; h < nw; h++ {
			e.workers[h].run(sec, now)
		}
		e.checkPanics()
		return
	}
	e.nDispatch++
	e.joins.Store(int32(ng - 1))
	for g := 1; g < ng; g++ {
		glo := e.groups[g]
		ghi := int32(nw)
		if g+1 < ng {
			ghi = e.groups[g+1]
		}
		w := e.workers[glo]
		w.runLo, w.runHi = glo, ghi
		w.slot.Add(1)
		if w.parkFlag.Load() != 0 {
			select {
			case w.wakeCh <- struct{}{}:
			default:
			}
		}
	}
	for h := int32(0); h < e.groups[1]; h++ {
		e.workers[h].run(sec, now)
	}
	for e.joins.Load() != 0 {
		select {
		case <-e.doneCh:
		default:
			runtime.Gosched()
		}
	}
	select { // drain a stale completion token
	case <-e.doneCh:
	default:
	}
	e.checkPanics()
}

// checkPanics re-raises the first captured worker panic (lowest home
// index) on the coordinator's goroutine.
func (e *parEngine) checkPanics() {
	for _, w := range e.workers {
		if w.panicked {
			w.panicked = false
			panic(fmt.Sprintf("network: parallel worker %d panicked: %v\n%s",
				w.id, w.panicVal, w.panicStack))
		}
	}
}

// run executes one section over the home's node range, capturing
// panics for deferred re-raise (a panic escaping a worker goroutine
// would kill the process without unwinding the coordinator).
func (w *parWorker) run(sec int32, now int64) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked, w.panicVal, w.panicStack = true, r, debug.Stack()
		}
	}()
	switch sec {
	case secDeliver:
		w.secDeliver(now)
	case secMain:
		w.secMain(now)
	case secCtrl:
		w.secCtrl(now)
	}
}

// first and after iterate the home's share of the node set: the home's
// slice of the active set under the scheduler, the full home range
// under FullTick. The active bitset is frozen during sections
// (activations only append to the pending list), so concurrent reads
// are safe.
func (w *parWorker) first() int32 {
	if s := w.eng.n.sched; s != nil {
		if i := s.next(w.lo); i != -1 && i < w.hi {
			return i
		}
		return -1
	}
	if w.lo < w.hi {
		return w.lo
	}
	return -1
}

func (w *parWorker) after(i int32) int32 {
	if s := w.eng.n.sched; s != nil {
		if j := s.next(i + 1); j != -1 && j < w.hi {
			return j
		}
		return -1
	}
	if i+1 < w.hi {
		return i + 1
	}
	return -1
}

// secDeliver is phase 1 in pull form: instead of each sender pushing
// into downstream buffers, each receiver drains the upstream pipes
// facing it. The two forms deliver the identical flit multiset — a
// non-empty pipe's receiver is always in the active set (the forward
// hook armed it at push time; DropRearms, which breaks that, is
// rejected with Workers > 1) — and pipe/port/VC state is identical
// because each pipe and each credit counter has exactly one writer.
func (w *parWorker) secDeliver(now int64) {
	n := w.eng.n
	for i := w.first(); i != -1; i = w.after(i) {
		r := n.Routers[i]
		// Incoming flits from each upstream neighbour.
		for _, d := range mesh.LinkDirections {
			nb := n.nbr[i][d]
			if nb == mesh.Invalid {
				continue
			}
			op := n.Routers[nb].Out(d.Opposite())
			if op.FlitOut.Empty() {
				continue
			}
			w.flitBuf = op.FlitOut.DrainAppend(now, w.flitBuf[:0])
			for _, ft := range w.flitBuf {
				if ft.Bypass {
					w.bypFwd = append(w.bypFwd, bypassFwd{
						from: nb, via: mesh.NodeID(i), dir: d.Opposite(), ft: ft,
					})
					continue
				}
				r.ReceiveFlit(d, ft.VC, ft.Flit, now)
			}
		}
		// Local ejection into the own NI.
		if op := r.Out(mesh.Local); !op.FlitOut.Empty() {
			nif := n.NIs[i]
			w.flitBuf = op.FlitOut.DrainAppend(now, w.flitBuf[:0])
			for _, ft := range w.flitBuf {
				nif.ReceiveEject(ft, now)
			}
		}
		// Outgoing credits to the upstream routers (single writer: only
		// the node across a port feeds that port's credit counters).
		for p := 0; p < mesh.NumPorts; p++ {
			d := mesh.Direction(p)
			ip := r.In(d)
			if ip.CreditOut.Empty() {
				continue
			}
			if d == mesh.Local {
				nif := n.NIs[i]
				w.credBuf = ip.CreditOut.DrainAppend(now, w.credBuf[:0])
				for _, c := range w.credBuf {
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
			w.credBuf = ip.CreditOut.DrainAppend(now, w.credBuf[:0])
			for _, c := range w.credBuf {
				up.ReceiveCredit(toward, c.VC)
			}
		}
	}
	if w.rec != nil {
		w.marks[0] = w.rec.Mark()
	}
}

// secMain fuses the serial engine's phases 2-6 (plus the WU-want half
// of phase 7, or phase 8 for non-gating schemes) into one section: NI
// punch signalling and router punch emission (both deferred into op
// buffers; the fabric steps on the coordinator afterwards), output
// masking, router pipelines, NI injection, and the own-state want
// levels with their wanted-neighbour arms. Controllers, neighbour
// output pipes, and the punch fabric are all frozen for the whole
// section, so every cross-node read is race-free; nothing here reads
// fabric state, which is what lets the fabric step move after the
// section (see the file comment for the float-order argument).
func (w *parWorker) secMain(now int64) {
	n := w.eng.n
	for i := w.first(); i != -1; i = w.after(i) {
		n.NIs[i].StepSignals(now)
	}
	if n.Fabric != nil {
		for i := w.first(); i != -1; i = w.after(i) {
			n.Routers[i].EmitPunches(&w.sink)
		}
	}
	for i := w.first(); i != -1; i = w.after(i) {
		n.maskBlocked(n.Routers[i])
	}
	for i := w.first(); i != -1; i = w.after(i) {
		n.Routers[i].Step(now)
	}
	if w.rec != nil {
		w.marks[1] = w.rec.Mark()
	}
	for i := w.first(); i != -1; i = w.after(i) {
		n.NIs[i].StepInject(now)
	}
	if w.rec != nil {
		w.marks[2] = w.rec.Mark()
	}
	if w.eng.gates {
		w.secWants(now)
	} else {
		// No controllers to step: the static-power tick (phase 8) rides
		// along here. Nodes armed during this section are charged by
		// the coordinator's straggler pass instead.
		for i := w.first(); i != -1; i = w.after(i) {
			n.Acct.TickStatic(int(i), routerPowerState(n.Routers[i].Ctrl))
		}
	}
}

// secWants is the WU-level half of phase 7, fused into section B:
// compute each own router's want levels from its post-pipeline state
// and collect the wanted-neighbour arms the serial engine would apply
// inline.
func (w *parWorker) secWants(now int64) {
	n := w.eng.n
	early := n.pol.EarlyWakeup()
	sched := n.sched
	for i := w.first(); i != -1; i = w.after(i) {
		r := n.Routers[i]
		if early {
			r.WantsOutput(&n.wants[i])
		} else {
			r.WantsOutputAtSA(&n.wants[i], now)
		}
		if sched == nil || r.Empty() {
			continue
		}
		for _, d := range mesh.LinkDirections {
			if n.wants[i][d] {
				if nb := n.nbr[i][d]; nb != mesh.Invalid {
					w.arms = append(w.arms, nb)
				}
			}
		}
	}
}

// secCtrl is the rest of phase 7 plus phase 8, for gating schemes:
// wakeup levels (own NI + frozen neighbour wants), PG controller steps
// (neighbour pipes and the fabric's hold state are frozen), and the
// static-power tick. It reads no parked neighbour FSM state — wants
// are plain arrays and the quiescence inputs are structural — so the
// halo sync owes it nothing.
func (w *parWorker) secCtrl(now int64) {
	n := w.eng.n
	for i := w.first(); i != -1; i = w.after(i) {
		wu := n.NIs[i].WantsWakeup()
		if !wu {
			for _, d := range mesh.LinkDirections {
				nb := n.nbr[i][d]
				if nb == mesh.Invalid {
					continue
				}
				if n.wants[nb][d.Opposite()] {
					wu = true
					break
				}
			}
		}
		n.wakeups[i] = wu
	}
	for i := w.first(); i != -1; i = w.after(i) {
		r := n.Routers[i]
		empty := r.Empty() && n.incomingQuiet(r)
		hold := false
		if n.Fabric != nil {
			hold = n.Fabric.Hold(r.ID)
		}
		bhold := n.bypassOn && n.bypassHeld(int(i))
		if n.wakeups[i] && n.Acct.Enabled() {
			n.Acct.WakeupSignal(int(i))
		}
		r.Ctrl.Step(pg.Inputs{Empty: empty, Wakeup: n.wakeups[i], PunchHold: hold, BypassHold: bhold})
	}
	for i := w.first(); i != -1; i = w.after(i) {
		n.Acct.TickStatic(int(i), routerPowerState(n.Routers[i].Ctrl))
	}
	if w.rec != nil {
		w.marks[3] = w.rec.Mark()
	}
}

// homeActive counts the active-set bits in the node range [lo, hi).
func homeActive(set []uint64, lo, hi int32) int {
	wLo, wHi := int(lo)>>6, int(hi-1)>>6
	mLo := ^uint64(0) << (uint(lo) & 63)
	mHi := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if wLo == wHi {
		return bits.OnesCount64(set[wLo] & mLo & mHi)
	}
	c := bits.OnesCount64(set[wLo] & mLo)
	for i := wLo + 1; i < wHi; i++ {
		c += bits.OnesCount64(set[i])
	}
	return c + bits.OnesCount64(set[wHi]&mHi)
}

// markDirty flags home h as having work this cycle. The first marking
// also brings the home's lane-bus clock up to date, so any event its
// nodes emit later this cycle computes payloads from the same cycle
// the real bus holds.
func (e *parEngine) markDirty(h int, now int64) {
	if e.dirty[h] {
		return
	}
	e.dirty[h] = true
	if w := e.workers[h]; w.bus != nil {
		w.bus.SetNow(now)
	}
}

// regroupNow derives the execution grouping from the active set: one
// contiguous group of homes per ~grain active nodes (at most one per
// home), balanced greedily by per-home active counts. Homes with
// active nodes are marked dirty. An empty active set clears the
// grouping entirely (sections are skipped); a single group makes the
// coordinator run everything inline. The partition is a pure function
// of the active bitset, so the re-sharding points are deterministic —
// and since commits replay home-major regardless of grouping, the
// partition cannot affect results at all.
func (e *parEngine) regroupNow(now int64) {
	s := e.n.sched
	nw := len(e.workers)
	total := 0
	for h, w := range e.workers {
		c := homeActive(s.active, w.lo, w.hi)
		e.cnt[h] = c
		total += c
		if c > 0 {
			e.markDirty(h, now)
		}
	}
	e.groups = e.groups[:0]
	if total == 0 {
		return
	}
	k := (total + e.grain - 1) / e.grain
	if k > nw {
		k = nw
	}
	e.groups = append(e.groups, 0)
	acc, lastAcc := 0, 0
	for h := 0; h < nw-1 && len(e.groups) < k; h++ {
		acc += e.cnt[h]
		// Close the current group once it holds its proportional share,
		// but only after strict progress — interior groups never start
		// empty, so every group leader for g >= 1 is a goroutine-backed
		// home.
		if acc > lastAcc && acc*k >= len(e.groups)*total {
			e.groups = append(e.groups, int32(h+1))
			lastAcc = acc
		}
	}
	// A tail group with no active nodes would dispatch a worker for
	// nothing; fold it into its predecessor.
	if lastAcc == total && len(e.groups) > 1 {
		e.groups = e.groups[:len(e.groups)-1]
	}
}

// maybeRegroup re-partitions if an arming flush changed the active set
// since the last grouping.
func (e *parEngine) maybeRegroup(now int64) {
	if e.regroup {
		e.regroup = false
		e.regroupNow(now)
	}
}

// syncNeighbors catches up the parked 1-hop neighbours of node i (and
// the 2-hop through-path neighbours when a bypass scheme is on)
// through the previous cycle. This is the complete set of parked-FSM
// state the sections read on node i's behalf: maskBlocked's
// PGAsserted and the bypass admission/suppression controller reads.
// Members of the active set are already synced (endCycle marked them),
// and a catchUp on a synced node is a read-only early return — which
// is exactly what makes the identical calls inside the sections
// race-free.
func (e *parEngine) syncNeighbors(i int32, now int64) {
	n := e.n
	s := n.sched
	for _, d := range mesh.LinkDirections {
		nb := n.nbr[i][d]
		if nb == mesh.Invalid {
			continue
		}
		if !s.inSet[nb] {
			s.catchUp(int32(nb), now-1)
		}
		if n.bypassOn {
			if a := n.nbr[nb][d]; a != mesh.Invalid && !s.inSet[a] {
				s.catchUp(int32(a), now-1)
			}
		}
	}
}

// syncHalo catches up the halo of the whole active set (see
// syncNeighbors). Replaces the old engine's eager whole-network
// syncAll: cost scales with the active set, not the node count.
func (e *parEngine) syncHalo(now int64) {
	s := e.n.sched
	for i := s.next(0); i != -1; i = s.next(i + 1) {
		e.syncNeighbors(i, now)
	}
}

// prepFlush is the parallel engine's arming flush: mark the pending
// nodes' homes dirty, sync their halos, move them into the active set,
// and request a re-partition before the next section.
func (e *parEngine) prepFlush(now int64) {
	s := e.n.sched
	if len(s.pending) == 0 {
		return
	}
	for _, i := range s.pending {
		e.markDirty(int(e.ownerOf[i]), now)
		e.syncNeighbors(i, now)
	}
	s.flush(now)
	e.regroup = true
}

// stragglerStatic charges the phase-8 static tick for nodes armed
// during section B (forward hooks), which joined too late for the
// fused tick — non-gating schemes only, where no section C runs. The
// flush's catch-up-then-tick per node is exactly the serial order, and
// cross-node order is free (per-node accumulators).
func (e *parEngine) stragglerStatic(now int64) {
	n := e.n
	s := n.sched
	if len(s.pending) == 0 {
		return
	}
	e.stragglers = append(e.stragglers[:0], s.pending...)
	s.flush(now)
	for _, i := range e.stragglers {
		n.Acct.TickStatic(int(i), routerPowerState(n.Routers[i].Ctrl))
	}
}

// replayCut re-emits the events of one recorder cut onto the real bus,
// home-major — the serial engines' ascending-node order, since homes
// are contiguous. Clean homes are skipped (their recorders are empty
// and their marks zero). Emit restamps the cycle (the lane clocks are
// kept in step anyway, because emitters derive event payloads from
// bus.Now()).
func (e *parEngine) replayCut(cut int) {
	if e.realBus == nil {
		return
	}
	for h, w := range e.workers {
		if !e.dirty[h] {
			continue
		}
		lo := 0
		if cut > 0 {
			lo = w.marks[cut-1]
		}
		events := w.rec.Slice(lo, w.marks[cut])
		for i := range events {
			e.realBus.Emit(events[i])
		}
	}
}

// replayBypassForwards relays the deferred bypass-tagged flits across
// their flown-over routers (see forwardBypass), home-major on the
// coordinator after the section A rendezvous. Pushes target the next
// cycle and stream-counter releases are first read in phase 7, so the
// replay point is behaviourally identical to the serial engines'
// inline forward during phase 1.
func (e *parEngine) replayBypassForwards(now int64) {
	n := e.n
	for _, w := range e.workers {
		for j := range w.bypFwd {
			bf := &w.bypFwd[j]
			n.Routers[bf.via].Out(bf.dir).FlitOut.Push(
				router.FlitInTransit{Flit: bf.ft.Flit, VC: bf.ft.VC}, now)
			if bf.ft.Flit.Type.IsTail() {
				n.Routers[bf.from].BypassStreamRelease(bf.dir)
			}
			*bf = bypassFwd{}
		}
		w.bypFwd = w.bypFwd[:0]
	}
}

// replayDelivers runs the buffered NI Deliver callbacks in ascending
// node order, on the coordinator — protocol handlers observe the exact
// serial call order, and their submissions (NewPacket, Submit) run in
// the single-threaded context they expect.
func (e *parEngine) replayDelivers() {
	for _, w := range e.workers {
		for j := range w.delivs {
			d := &w.delivs[j]
			d.nif.Deliver(d.p, d.at)
			*d = deferredDeliver{}
		}
		w.delivs = w.delivs[:0]
	}
}

// replayPunchOps applies the deferred punch-fabric calls to the real
// fabric: all NI signal ops (phase 2), then all router emissions
// (phase 3), each home-major. Order matters — per-node pending lists,
// strict-port arbitration, and event emission all follow call order.
func (e *parEngine) replayPunchOps() {
	fab := e.n.Fabric
	for _, w := range e.workers {
		for _, op := range w.sigOps {
			if op.kind == opEmitLocal {
				fab.EmitLocal(op.a, op.b)
			} else {
				fab.HoldLocal(op.a)
			}
		}
		w.sigOps = w.sigOps[:0]
	}
	for _, w := range e.workers {
		for _, op := range w.emitOps {
			fab.EmitSource(op.a, op.b)
		}
		w.emitOps = w.emitOps[:0]
	}
}

// replayArms feeds the buffered activation attempts through the
// scheduler, home-major. Every attempt is replayed (no dedup in the
// buffers) so the inSet guard runs exactly as it would have inline.
func (e *parEngine) replayArms(s *scheduler) {
	for _, w := range e.workers {
		for _, id := range w.arms {
			s.activate(int32(id), true)
		}
		w.arms = w.arms[:0]
	}
}

// drainFlitReturns returns every deferred ejected flit to the pool of
// the home owning its source node, in fixed (target, source) order,
// keeping pool contents deterministic. Clean source homes ejected
// nothing this cycle, so their queues are provably empty.
func (e *parEngine) drainFlitReturns() {
	if e.workers[0].pool == nil {
		return
	}
	for tw, wt := range e.workers {
		for sw, ws := range e.workers {
			if !e.dirty[sw] {
				continue
			}
			q := ws.flitRet[tw]
			for j, f := range q {
				wt.pool.PutFlit(f)
				q[j] = nil
			}
			ws.flitRet[tw] = q[:0]
		}
	}
}

// step advances the network one cycle on the parallel engine. The
// structure mirrors stepActive/stepFull phase for phase; see the file
// comment for the section fusion and rendezvous rationale.
func (e *parEngine) step() {
	n := e.n
	now := n.now
	s := n.sched
	if n.bus != nil {
		n.bus.SetNow(now)
	}

	// Per-cycle housekeeping: propagate the sample-keeping flag to the
	// lanes when it changes, reset last cycle's dirty recorders (clean
	// homes provably have empty recorders and zero marks, so the replay
	// cuts can always slice them safely), then flush, halo-sync, and
	// group for the cycle.
	keep := n.Col.KeepingSamples()
	if keep != e.lastKeep {
		e.lastKeep = keep
		for _, w := range e.workers {
			w.col.KeepSamples(keep)
		}
	}
	if s == nil {
		for _, w := range e.workers {
			if w.rec != nil {
				w.rec.Reset()
				w.marks = [4]int{}
				// Lane clocks track the real bus: emitters compute event
				// payloads from bus.Now() (e.g. the KindPGGate
				// active-period length), so lanes must read the same cycle
				// the real bus does. Event cycle stamps would be correct
				// either way — replay restamps them — but payloads are
				// recorded verbatim.
				w.bus.SetNow(now)
			}
		}
	} else {
		for h, w := range e.workers {
			if e.dirty[h] {
				e.dirty[h] = false
				if w.rec != nil {
					w.rec.Reset()
				}
				w.marks = [4]int{}
			}
		}
		e.prepFlush(now)
		e.syncHalo(now)
		e.regroupNow(now)
		e.regroup = false
	}

	// Section A — phase 1: pull-deliver, credits, ejection.
	e.inSection = true
	e.runSection(secDeliver, now)
	e.inSection = false
	if n.bypassOn {
		e.replayBypassForwards(now)
	}
	e.replayCut(0)
	e.replayDelivers()
	if s != nil {
		e.prepFlush(now)
		e.maybeRegroup(now)
	}

	// Section B — phases 2-6 (+ want levels or non-gating static).
	e.inSection = true
	e.runSection(secMain, now)
	e.inSection = false

	// Phase 3's fabric half, on the real fabric in serial order. B
	// generated this cycle's ops but read no fabric state, and the
	// holds the step produces are first read in section C — so the
	// fabric floats here without reordering any per-router, per-field
	// accumulation (see the file comment).
	if n.Fabric != nil {
		e.replayPunchOps()
		if s == nil {
			n.Fabric.Step()
		} else if n.Fabric.NeedsStep() {
			n.Fabric.Step()
			for _, id := range n.Fabric.Held() {
				s.activate(int32(id), true)
			}
		}
	}
	e.replayCut(1)
	e.replayCut(2)
	if s != nil {
		e.replayArms(s)
	}

	// Section C — phases 7-8 (gating schemes); non-gating schemes only
	// owe the stragglers their static tick.
	if e.gates {
		if s != nil {
			e.prepFlush(now)
			e.maybeRegroup(now)
		}
		e.inSection = true
		e.runSection(secCtrl, now)
		e.inSection = false
		e.replayCut(3)
	} else if s != nil {
		e.stragglerStatic(now)
	}

	n.Acct.TickCycle()
	for h, w := range e.workers {
		if e.dirty[h] {
			n.Col.Merge(w.col)
		}
	}
	e.drainFlitReturns()

	// Phase 9: invariant checks, serial on the coordinator. The engine
	// reads every node's counters, so the whole network is synced first
	// (checked runs trade the halo economy for coverage).
	if n.Checker != nil {
		if s != nil {
			s.syncAll(now)
		}
		if v := n.Checker.EndCycle(now); v != nil {
			n.reportViolation(v)
		}
	}

	if s != nil {
		s.endCycle(now)
	}
	if n.bus != nil {
		n.bus.EndCycle()
	}
	n.now = now + 1
}
