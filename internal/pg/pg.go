// Package pg implements the per-router power-gating controller of the
// paper's Section 2.2: a small always-on FSM that monitors datapath
// emptiness and wakeup (WU) levels, gates the router off after an idle
// timeout, asserts the PG signal to neighbors while the router is
// unavailable, and wakes the router over Twakeup cycles when a WU or
// punch signal arrives.
//
// The controller is policy-agnostic: the network computes its per-cycle
// inputs (emptiness, WU level, punch hold) according to the scheme under
// evaluation (ConvOpt early wakeup, Power Punch, ...), and the controller
// applies the gating FSM. For the No-PG baseline the controller is
// disabled and reports the router as permanently on.
package pg

import (
	"fmt"

	"powerpunch/internal/obs"
	"powerpunch/internal/workset"
)

// State is the gating FSM state.
type State int

// FSM states. Draining routers are fully functional (they are merely
// counting idle cycles); Gated and Waking routers are unavailable and
// assert PG to their neighbors.
const (
	Active State = iota
	Draining
	Gated
	Waking
)

// String returns a short state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Gated:
		return "gated"
	case Waking:
		return "waking"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Inputs are the controller's per-cycle observations, computed by the
// network for the scheme under test.
type Inputs struct {
	// Empty reports that the router datapath holds no flits and none are
	// in flight toward it.
	Empty bool
	// Wakeup is the merged WU level from neighbors and the local NI.
	Wakeup bool
	// PunchHold is asserted when a punch signal names this router or
	// transits it this cycle (Power Punch schemes only): the router must
	// wake if gated and must not gate off.
	PunchHold bool
	// BypassHold is asserted while a neighbor is streaming flits over
	// this gated router on the bypass path (FlyOver-style schemes).
	// A waking router pauses its countdown until the stream drains:
	// the bypass latch and the router pipeline must never be live in
	// the same cycle. It does not wake a gated router — bypass traffic
	// is exactly the traffic that does not need this router on.
	BypassHold bool
}

// Stats counts controller activity for energy accounting and analysis.
type Stats struct {
	GatingEvents  int64 // completed power-off decisions
	GatedCycles   int64 // cycles spent in Gated
	WakingCycles  int64 // cycles spent in Waking
	ShortGatings  int64 // gated periods shorter than the break-even time
	WakeupsPunch  int64 // wakeups triggered by punch signals
	WakeupsWU     int64 // wakeups triggered by plain WU level
	SleepsBlocked int64 // timeout expiries vetoed by a punch hold
}

// Controller is one router's power-gating controller. The zero value is
// unusable; use New.
type Controller struct {
	enabled bool
	// adaptive enables the throttle extension (off by default): when the
	// recent average gated-period length falls below the break-even
	// time, gating is counter-productive churn, so the controller backs
	// off for a while. See SetAdaptiveThrottle.
	adaptive bool
	// faultIgnoreWakeups is a deliberate defect for invariant-engine
	// tests; see SetFaultIgnoreWakeups.
	faultIgnoreWakeups bool

	timeout int // idle cycles before gating (>= 2)
	wakeup  int // Twakeup

	state     State
	idleCnt   int
	wakeCnt   int
	gatedAt   int64 // cycle of the Step that began the current gated period
	breakEven int64

	// Adaptive throttle state: gating is refused before throttleUntil.
	gatedEWMA     float64
	ewmaSamples   int
	throttleUntil int64

	stats Stats

	// level mirrors PGAsserted into the network's pgLevel summary; see
	// TrackLevel.
	level workset.Bit

	// onGate/onWake are optional state-change callbacks; see SetHooks.
	onGate func()
	onWake func()

	// bus, when non-nil, receives gate/wake/active transition events
	// (see SetBus). activeSince tracks the cycle the router last
	// became usable, for the KindPGGate active-period payload.
	bus         *obs.Bus
	node        int32
	activeSince int64
}

// New returns a controller. enabled=false yields a permanently-Active
// controller (the No-PG baseline). timeout is the idle filter (paper: 4,
// minimum 2) and wakeupLatency is Twakeup (paper: 8). breakEven is used
// only for the ShortGatings statistic.
func New(enabled bool, timeout, wakeupLatency int, breakEven int) *Controller {
	if enabled && timeout < 2 {
		panic(fmt.Sprintf("pg: timeout must be >= 2, got %d", timeout))
	}
	if enabled && wakeupLatency < 1 {
		panic(fmt.Sprintf("pg: wakeup latency must be >= 1, got %d", wakeupLatency))
	}
	return &Controller{
		enabled:   enabled,
		timeout:   timeout,
		wakeup:    wakeupLatency,
		state:     Active,
		breakEven: int64(breakEven),
	}
}

// SetHooks registers state-change callbacks: onGate fires when the
// controller enters Gated, onWake when it leaves Gated to begin waking
// (the paper charges the full sleep+wake overhead there). Between them
// the network keeps an exact count of gated routers.
func (c *Controller) SetHooks(onGate, onWake func()) {
	c.onGate, c.onWake = onGate, onWake
}

// Adaptive back-off tuning: gating pauses for throttleWindow cycles
// whenever the exponentially-weighted average gated-period length
// (computed over at least throttleMinSamples events, decay
// throttleDecay) drops below the break-even time.
const (
	throttleWindow     = 4096
	throttleMinSamples = 4
	throttleDecay      = 0.75
)

// SetBus attaches an observability bus: the controller for router
// `node` emits KindPGGate / KindPGWake / KindPGActive transition
// events. A nil bus (the default) keeps the controller silent at the
// cost of one branch per transition.
func (c *Controller) SetBus(b *obs.Bus, node int32) {
	c.bus, c.node = b, node
	if b != nil {
		c.activeSince = b.Now()
	}
}

// SetAdaptiveThrottle enables the churn back-off extension: gating
// pauses for a window whenever the recent average gated-period length
// fails to reach the break-even time (medium-load churn turns power
// gating into a net energy loss; the paper's fixed timeout cannot
// detect this).
func (c *Controller) SetAdaptiveThrottle(v bool) { c.adaptive = v }

// State returns the current FSM state.
func (c *Controller) State() State { return c.state }

// IsOn reports whether the router datapath is powered and functional
// (Active or Draining).
func (c *Controller) IsOn() bool { return c.state == Active || c.state == Draining }

// TrackLevel makes b the controller's PG-level bit: every state change
// writes PGAsserted into it, so Step keeps it current. It is written at
// once from the current state.
func (c *Controller) TrackLevel(b workset.Bit) {
	c.level = b
	b.Put(c.PGAsserted())
}

// PGAsserted reports whether the PG (unavailable) signal is asserted to
// neighbors: true while Gated or Waking, matching the paper's handshake
// ("the packet is stalled ... until router A is fully awoken and the PG
// signal is cleared").
func (c *Controller) PGAsserted() bool { return c.state == Gated || c.state == Waking }

// Enabled reports whether power gating is active at all.
func (c *Controller) Enabled() bool { return c.enabled }

// Stats returns the accumulated statistics as of the end of cycle
// through, which must not precede the last Step: a gated period still
// open then counts its cycles up to through. A controller that has sat
// Gated without being stepped (its node retired) reads exactly as if it
// had been stepped every cycle.
func (c *Controller) Stats(through int64) Stats {
	s := c.stats
	if c.state == Gated {
		s.GatedCycles += through - c.gatedAt
	}
	return s
}

// WakeRemaining returns the cycles left before a Waking router becomes
// Active (0 otherwise).
func (c *Controller) WakeRemaining() int {
	if c.state == Waking {
		return c.wakeCnt
	}
	return 0
}

// Step advances the FSM through cycle now given that cycle's
// observations; the resulting state governs the next cycle. Step
// mutates only this controller; Inputs is a value snapshot the network
// assembles from this cycle's levels. Every count is kept as elapsed
// time (gatedAt, throttleUntil), so a Gated controller need not be
// stepped on cycles whose inputs are idle: such a Step is a no-op.
func (c *Controller) Step(now int64, in Inputs) {
	if !c.enabled {
		return
	}
	switch c.state {
	case Active, Draining:
		if !in.Empty || in.Wakeup || in.PunchHold {
			c.setState(Active)
			c.idleCnt = 0
			return
		}
		c.idleCnt++
		if c.idleCnt < c.timeout {
			c.setState(Draining)
			return
		}
		if c.adaptive && now < c.throttleUntil {
			c.setState(Draining) // back-off: recent gatings were churn
			c.stats.SleepsBlocked++
			return
		}
		// Timeout expired with a quiet datapath: gate off.
		c.setState(Gated)
		c.idleCnt = 0
		c.gatedAt = now
		if c.onGate != nil {
			c.onGate()
		}
		if c.bus != nil {
			c.bus.Emit(obs.Event{Kind: obs.KindPGGate, Node: c.node, A: c.bus.Now() - c.activeSince})
		}
	case Gated:
		if c.faultIgnoreWakeups {
			return
		}
		if in.Wakeup || in.PunchHold {
			if in.PunchHold {
				c.stats.WakeupsPunch++
			} else {
				c.stats.WakeupsWU++
			}
			c.beginWake(now, in.PunchHold)
		}
	case Waking:
		c.stats.WakingCycles++
		if in.BypassHold {
			return // wake paused until the bypass stream drains
		}
		c.wakeCnt--
		if c.wakeCnt <= 0 {
			c.setState(Active)
			c.idleCnt = 0
			if c.bus != nil {
				c.activeSince = c.bus.Now()
				c.bus.Emit(obs.Event{Kind: obs.KindPGActive, Node: c.node, A: int64(c.wakeup)})
			}
		}
	}
}

// setState moves the FSM to s and writes the PG level it implies.
func (c *Controller) setState(s State) {
	c.state = s
	c.level.Put(s == Gated || s == Waking)
}

func (c *Controller) beginWake(now int64, punch bool) {
	c.setState(Waking)
	// The WU was observed this cycle (counted Gated); wakeup-1 further
	// Waking cycles make the router usable exactly Twakeup cycles after
	// the WU assertion.
	c.wakeCnt = c.wakeup - 1
	gatedFor := now - c.gatedAt
	c.stats.GatedCycles += gatedFor
	c.stats.GatingEvents++
	short := gatedFor < c.breakEven
	if short {
		c.stats.ShortGatings++
	}
	if c.bus != nil {
		ev := obs.Event{Kind: obs.KindPGWake, Node: c.node, A: gatedFor}
		if punch {
			ev.B = 1
		}
		if short {
			ev.Dir = 1
		}
		c.bus.Emit(ev)
	}
	if c.adaptive {
		if c.ewmaSamples == 0 {
			c.gatedEWMA = float64(gatedFor)
		} else {
			c.gatedEWMA = throttleDecay*c.gatedEWMA + (1-throttleDecay)*float64(gatedFor)
		}
		c.ewmaSamples++
		if c.ewmaSamples >= throttleMinSamples && c.gatedEWMA < float64(c.breakEven) {
			c.throttleUntil = now + throttleWindow
			c.ewmaSamples = 0 // re-sample fresh after the pause
		}
	}
	if c.onWake != nil {
		c.onWake()
	}
}

// Parked reports whether the controller has reached a fixed point under
// idle inputs: it is disabled (No-PG) or Gated, and either way Step with
// an empty datapath, no wakeup and no punch hold changes nothing. The
// active-set scheduler retires a node only once its controller is
// parked, so a retired node's State, PG level and Stats stay exact while
// it is skipped.
func (c *Controller) Parked() bool { return !c.enabled || c.state == Gated }

// SetFaultIgnoreWakeups installs a deliberate defect: a gated controller
// ignores WU and punch-hold levels and never wakes. It exists solely so
// the invariant engine's power-gating safety checks can be demonstrated
// against a real failure; see config.Faults.
func (c *Controller) SetFaultIgnoreWakeups(v bool) { c.faultIgnoreWakeups = v }
