// Package power implements the event-based router energy model used to
// reproduce the paper's energy results (Figures 11 and 12). Its structure
// follows DSENT-style NoC power modelling at 45 nm: dynamic energy is
// charged per microarchitectural event (buffer write/read, arbitration,
// crossbar traversal, link traversal), static energy per cycle per
// powered-on router, and power-gating overhead per sleep/wake transition.
//
// The ledger is one row of integer event counters for the whole
// network. Each charge increments exactly one counter; the per-component
// ComponentBreakdown (buffers, crossbar, allocators, clock tree, links,
// punch channel, WU handshake, gate overhead) multiplies the summed
// counts by the calibrated energies, and the aggregate Breakdown
// (dynamic / static / overhead) is that breakdown summed by class.
// Integer sums are order-insensitive, so both views are bit-identical
// across the active-set and full-walk engines.
//
// The constants are calibrated so that, at PARSEC-like loads on the
// paper's minimal 8x8 configuration, static power is ~64% of total router
// power (paper Section 2.1) and the break-even time is 10 cycles (paper
// Section 5): gating for fewer than BET cycles wastes energy, exactly as
// in the paper's accounting. Alternative calibrations are grouped into
// named presets (see PresetByName); the paper's numbers are the
// paper-hpca15 preset.
package power

// Constants is the set of per-event energies (joules) and per-cycle
// powers used by the model. The zero value is useless; start from
// DefaultConstants or a named preset (PresetByName).
type Constants struct {
	CycleTime float64 // seconds per cycle

	// Dynamic energy per flit per event (J).
	EBufferWrite float64
	EBufferRead  float64
	EArbitration float64 // VC + switch allocation per traversing flit
	ECrossbar    float64
	ELink        float64

	// EClockCycle is the clock tree's dynamic energy per powered-on
	// router-cycle. Zero in the paper-hpca15 preset (the paper folds the
	// clock into the static figure), nonzero in the scaled presets.
	EClockCycle float64

	// EPunchHop is the dynamic energy of asserting one punch channel for
	// one cycle (the narrow 5-bit/2-bit sideband of Figure 5 plus its
	// relay logic). Charged to power-gating overhead.
	EPunchHop float64

	// EWakeupSignal is the energy of one WU/PG handshake assertion.
	EWakeupSignal float64

	// PStaticRouter is the leakage power of one powered-on router (W).
	PStaticRouter float64

	// StaticFracBuffer..StaticFracClock apportion PStaticRouter across
	// the leaking components (input buffers, crossbar, allocators, clock
	// tree) for the per-component view. They must sum to 1 so a
	// powered-on router-cycle leaks exactly PStaticRouter * CycleTime.
	StaticFracBuffer   float64
	StaticFracCrossbar float64
	StaticFracAlloc    float64
	StaticFracClock    float64

	// GatedLeakFrac is the fraction of PStaticRouter still leaking while
	// gated (sleep-switch and always-on PG controller leakage),
	// attributed to the gate component.
	GatedLeakFrac float64

	// BreakEvenCycles converts to the per-gating-event overhead: one
	// sleep/wake round trip (charging the power rail, distributing the
	// sleep signal) costs BreakEvenCycles * PStaticRouter * CycleTime.
	BreakEvenCycles int
}

// DefaultConstants returns the 45 nm, 2 GHz calibration described in the
// package comment — the paper-hpca15 preset.
func DefaultConstants() Constants {
	return Constants{
		CycleTime: 0.5e-9, // 2 GHz

		EBufferWrite: 85.0e-12,
		EBufferRead:  70.0e-12,
		EArbitration: 15.0e-12,
		ECrossbar:    110.0e-12,
		ELink:        140.0e-12,
		EClockCycle:  0,

		EPunchHop:     0.12e-12,
		EWakeupSignal: 0.05e-12,

		PStaticRouter: 28.0e-3, // 28 mW leakage per router
		GatedLeakFrac: 0.0,

		// DSENT-flavoured leakage apportionment for the per-component
		// view: buffers and the clock tree dominate, the crossbar wires
		// and allocator logic leak less. Sums to 1 exactly.
		StaticFracBuffer:   0.32,
		StaticFracCrossbar: 0.15,
		StaticFracAlloc:    0.08,
		StaticFracClock:    0.45,

		BreakEvenCycles: 10,
	}
}

// EStaticCycle returns the leakage energy of one powered-on router for
// one cycle.
func (c Constants) EStaticCycle() float64 { return c.PStaticRouter * c.CycleTime }

// EGatingOverhead returns the energy overhead of one complete power-gating
// event (power off + wake up), the quantity whose ratio to per-cycle
// leakage defines the break-even time.
func (c Constants) EGatingOverhead() float64 {
	return float64(c.BreakEvenCycles) * c.EStaticCycle()
}

// Breakdown is an energy decomposition in joules, matching the three bars
// of the paper's Figure 11.
type Breakdown struct {
	Dynamic  float64 // buffers, allocators, crossbars, clock, links
	Static   float64 // leakage while on or waking (+ residual gated leak)
	Overhead float64 // gating transitions, punch & wakeup signalling
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.Dynamic + b.Static + b.Overhead }

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Dynamic += o.Dynamic
	b.Static += o.Static
	b.Overhead += o.Overhead
}

// Event identifies one kind of counted charge. Each emission site in
// the simulator maps to exactly one event, and Components derives every
// component's energy from the event counts, so the counters are the
// whole energy ledger.
type Event int

// The counted events. The trailing two are state events (router-cycles
// in a power state), the rest are occurrence events.
const (
	EvBufferWrite Event = iota
	EvTraverse          // switch traversal: buffer read + arbitration + crossbar
	EvLink
	EvPunchHop
	EvWakeupSig
	EvGating
	EvGatedCycle // router-cycles spent gated
	EvOnCycle    // router-cycles spent on or waking
	numEvents
)

// Accountant accumulates energy for a network of routers as one row of
// integer event counters, indexed by Event. It is not concurrency-safe;
// the simulator drives it from the single cycle loop. Integer sums are
// order-insensitive, so both tick engines end with the same counts.
type Accountant struct {
	C       Constants
	enabled bool

	routers int
	counts  [numEvents]int64
	cycles  int64 // enabled cycles accumulated
}

// NewAccountant returns an accountant for n routers using constants c.
// Accounting starts disabled (warmup); call SetEnabled(true) at the start
// of the measurement window.
func NewAccountant(n int, c Constants) *Accountant {
	return &Accountant{C: c, routers: n}
}

// SetEnabled turns accounting on or off (off during warmup and drain of
// unmeasured traffic).
func (a *Accountant) SetEnabled(v bool) { a.enabled = v }

// Enabled reports whether accounting is active.
func (a *Accountant) Enabled() bool { return a.enabled }

// charge adds one occurrence of ev while accounting is on.
func (a *Accountant) charge(ev Event) {
	if a.enabled {
		a.counts[ev]++
	}
}

// Count returns the network-wide count of event ev.
func (a *Accountant) Count(ev Event) int64 { return a.counts[ev] }

// TickCycle closes one network cycle in which gated of the routers were
// power-gated: it charges gated router-cycles of gated leakage and the
// rest as powered on (waking routers leak like powered-on ones, the rail
// is charging, and also draw the clock tree's dynamic energy when the
// calibration models it). Call exactly once per network cycle.
func (a *Accountant) TickCycle(gated int) {
	if a.enabled {
		a.cycles++
		a.counts[EvGatedCycle] += int64(gated)
		a.counts[EvOnCycle] += int64(a.routers - gated)
	}
}

// Cycles returns the number of measured cycles.
func (a *Accountant) Cycles() int64 { return a.cycles }

// BufferWrite charges a flit buffer write (component: input buffers).
func (a *Accountant) BufferWrite() { a.charge(EvBufferWrite) }

// Traverse charges a flit's buffer read, arbitration, and crossbar
// traversal — the switch-traversal event, spanning the buffer,
// allocator, and crossbar components.
func (a *Accountant) Traverse() { a.charge(EvTraverse) }

// LinkHop charges a flit's traversal of one inter-router link
// (component: links).
func (a *Accountant) LinkHop() { a.charge(EvLink) }

// PunchHop charges one cycle of punch-channel assertion (component:
// punch channel; overhead class).
func (a *Accountant) PunchHop() { a.charge(EvPunchHop) }

// WakeupSignal charges one WU/PG handshake assertion (component: wakeup
// signalling; overhead class).
func (a *Accountant) WakeupSignal() { a.charge(EvWakeupSig) }

// GatingEvent charges the sleep/wake round-trip overhead of one
// power-gating event (charged when the router begins waking; component:
// gate).
func (a *Accountant) GatingEvent() { a.charge(EvGating) }

// Network returns the network-wide aggregate breakdown: the component
// breakdown summed into its three classes.
func (a *Accountant) Network() Breakdown {
	b := a.Components()
	return b.Classes()
}

// Components returns the network-wide per-component breakdown: each
// count is multiplied once by its calibrated energy. Being a pure
// function of integer counters, the result is bit-identical across tick
// engines.
func (a *Accountant) Components() ComponentBreakdown {
	var b ComponentBreakdown
	c := a.C
	n := &a.counts
	b[CompBuffer].Dynamic = float64(n[EvBufferWrite])*c.EBufferWrite + float64(n[EvTraverse])*c.EBufferRead
	b[CompCrossbar].Dynamic = float64(n[EvTraverse]) * c.ECrossbar
	b[CompAlloc].Dynamic = float64(n[EvTraverse]) * c.EArbitration
	b[CompClock].Dynamic = float64(n[EvOnCycle]) * c.EClockCycle
	b[CompLink].Dynamic = float64(n[EvLink]) * c.ELink

	es := c.EStaticCycle()
	on := float64(n[EvOnCycle])
	b[CompBuffer].Static = on * c.StaticFracBuffer * es
	b[CompCrossbar].Static = on * c.StaticFracCrossbar * es
	b[CompAlloc].Static = on * c.StaticFracAlloc * es
	b[CompClock].Static = on * c.StaticFracClock * es

	b[CompPunch].Overhead = float64(n[EvPunchHop]) * c.EPunchHop
	b[CompWakeup].Overhead = float64(n[EvWakeupSig]) * c.EWakeupSignal
	b[CompGate].Overhead = float64(n[EvGating]) * c.EGatingOverhead()
	b[CompGate].Static = float64(n[EvGatedCycle]) * c.GatedLeakFrac * es
	return b
}

// CycleTime returns the calibration's seconds per cycle (obs.PowerMeter).
func (a *Accountant) CycleTime() float64 { return a.C.CycleTime }

// AvgStaticPower returns the average network static power in watts over
// the measured window, counting gating overhead as static (the paper's
// "net static energy" convention for Figures 11 and 12).
func (a *Accountant) AvgStaticPower() float64 {
	if a.cycles == 0 {
		return 0
	}
	b := a.Network()
	return (b.Static + b.Overhead) / (float64(a.cycles) * a.C.CycleTime)
}

// StaticSavedFrac returns the fraction of No-PG static energy saved:
// 1 - (static+overhead) / (routers * cycles * EStaticCycle).
func (a *Accountant) StaticSavedFrac() float64 {
	if a.cycles == 0 {
		return 0
	}
	baseline := float64(a.routers) * float64(a.cycles) * a.C.EStaticCycle()
	if baseline == 0 {
		return 0
	}
	b := a.Network()
	return 1 - (b.Static+b.Overhead)/baseline
}
