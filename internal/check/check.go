package check

import (
	"fmt"

	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/ni"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
	"powerpunch/internal/topo"
)

// Defaults for the tunable thresholds (see config.CheckInterval and
// config.CheckStallLimit).
const (
	DefaultInterval   = 8
	DefaultStallLimit = 4096
	ringSize          = 256
)

// View gives the engine read access to the network's components. The
// network builds it once at construction; the engine never mutates
// anything it can see.
type View struct {
	Cfg     *config.Config
	M       *topo.Topology
	RF      *topo.RoutingFunction
	Routers []*router.Router
	NIs     []*ni.NI
	Fabric  *core.Fabric // nil unless a punch scheme is active
}

// stallSlot tracks the deadlock watchdog's per-VC state: the identity of
// the front flit last seen ready-and-routed and for how many consecutive
// cycles. Under a bypass scheme, ns counts the consecutive cycles the
// front has been blocked by a Gated neighbor while NOT bypass-servable:
// servability can lapse mid-stall (the landing router gates), and the
// re-asserted wakeup level needs a cycle to propagate before the gated
// neighbor reacts — the handshake invariant grants that window.
type stallSlot struct {
	f   *flit.Flit
	cnt int64
	ns  int64
}

// Engine runs the invariant suite at the end of every cycle. The cheap
// safety invariants (power-gating state machine, punch non-blocking,
// watchdog) run every cycle; the whole-network sweeps (flit and credit
// conservation, VC legality, pipe hygiene) run every `interval` cycles.
// The engine stops checking after the first violation.
//
// The engine is single-threaded and runs at the end of each cycle.
// Checked runs disable flit pooling, so every retained artifact pointer
// stays stable.
type Engine struct {
	view       View
	interval   int64
	stallLimit int64

	perVN        int
	expectWaking int64 // end-of-cycle Waking observations per wake
	// punchGuard gates the punch-nonblocking invariant: the paper's
	// guarantee holds when punches are active, never dropped by strict
	// arbitration, relayed one link per cycle (LinkLatency 1), and the
	// hop slack covers the wakeup latency (k*Trouter >= Twakeup).
	punchGuard bool
	// bypass mirrors the scheme policy's Bypass() answer: under a
	// bypass scheme gated routers legitimately relay tagged flits, so
	// the pg-empty and wake-handshake invariants take their
	// bypass-aware forms.
	bypass bool

	// Per-router power-gating FSM tracking.
	prevState  []pg.State
	wakingFor  []int64 // consecutive Waking observations (current wake)
	gatedSeen  []int64 // total end-of-cycle Gated observations
	wakingSeen []int64 // total end-of-cycle Waking observations

	stalls [][]stallSlot // watchdog state, [router][port*numVCs+vc]

	vcScratch []router.VCView // reused per-router snapshot buffer

	events []SubmitEvent
	ring   [ringSize]string
	ringN  int // total records ever written

	first *Violation
	done  bool
}

// New returns an engine over the given view. The view's slices must be
// fully populated; thresholds come from the config (0 = default).
func New(v View) *Engine {
	n := len(v.Routers)
	e := &Engine{
		view:       v,
		interval:   int64(v.Cfg.CheckInterval),
		stallLimit: int64(v.Cfg.CheckStallLimit),
		perVN:      v.Cfg.VCsPerVN(),
		prevState:  make([]pg.State, n),
		wakingFor:  make([]int64, n),
		gatedSeen:  make([]int64, n),
		wakingSeen: make([]int64, n),
		stalls:     make([][]stallSlot, n),
	}
	if e.interval <= 0 {
		e.interval = DefaultInterval
	}
	if e.stallLimit <= 0 {
		e.stallLimit = DefaultStallLimit
	}
	e.expectWaking = int64(v.Cfg.WakeupLatency) - 1
	if e.expectWaking < 1 {
		e.expectWaking = 1
	}
	pol, perr := v.Cfg.Scheme.Policy()
	if perr != nil {
		// The network validated the config before building the view;
		// an unknown scheme cannot reach here. Fall back to the most
		// conservative invariant set.
		e.punchGuard = false
	} else {
		e.punchGuard = pol.Punches() &&
			!v.Cfg.PunchStrict &&
			v.Cfg.LinkLatency == 1 &&
			v.Cfg.PunchSlackCycles() >= v.Cfg.WakeupLatency
		e.bypass = pol.Bypass()
	}
	for i := range e.stalls {
		e.stalls[i] = make([]stallSlot, mesh.NumPorts*v.Routers[i].NumVCs())
	}
	return e
}

// ObserveNI hooks the NI's submission callback so the engine records
// every traffic event for the failure artifact. Any previously-installed
// callback (e.g. a trace recorder) keeps firing.
func (e *Engine) ObserveNI(n *ni.NI) {
	prev := n.OnSubmit
	n.OnSubmit = func(p *flit.Packet, hintValid bool, delay int, now int64) {
		e.events = append(e.events, SubmitEvent{
			Now: now, Src: p.Src, Dst: p.Dst, VN: p.VN, Kind: p.Kind,
			Size: p.Size, Hint: hintValid, Delay: delay,
		})
		if prev != nil {
			prev(p, hintValid, delay, now)
		}
	}
}

// EndCycle runs the invariant suite for the cycle that just completed
// and returns the first violation found, or nil. After a violation is
// returned once the engine disarms and always returns nil.
func (e *Engine) EndCycle(now int64) *Violation {
	if e.done {
		return nil
	}
	e.checkPG(now)
	e.checkBlockedHeads(now)
	if e.first == nil && now%e.interval == 0 {
		e.checkCredits(now)
		e.checkConservation(now)
		e.checkVCLegality(now)
		e.checkPipes(now)
		e.checkFabric(now)
		e.checkPGStats(now)
	}
	if e.first != nil {
		e.done = true
		return e.first
	}
	return nil
}

// fail records the first violation; later calls are ignored.
func (e *Engine) fail(now int64, invariant, format string, args ...any) {
	if e.first != nil {
		return
	}
	e.first = &Violation{Invariant: invariant, Cycle: now, Detail: fmt.Sprintf(format, args...)}
	e.record(now, "VIOLATION %s: %s", invariant, e.first.Detail)
}

// record appends a line to the ring buffer of recent events.
func (e *Engine) record(now int64, format string, args ...any) {
	e.ring[e.ringN%ringSize] = fmt.Sprintf("c%d: %s", now, fmt.Sprintf(format, args...))
	e.ringN++
}

// Artifact packages a violation with everything needed to replay it.
func (e *Engine) Artifact(v *Violation) *Artifact {
	a := &Artifact{
		Violation: *v,
		Seed:      e.view.Cfg.Seed,
		Config:    *e.view.Cfg,
		Events:    append([]SubmitEvent(nil), e.events...),
	}
	n := e.ringN
	if n > ringSize {
		n = ringSize
	}
	for i := 0; i < n; i++ {
		a.Recent = append(a.Recent, e.ring[(e.ringN-n+i)%ringSize])
	}
	return a
}
