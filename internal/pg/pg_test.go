package pg

import (
	"testing"
	"testing/quick"

	"powerpunch/internal/workset"
)

// idle is the all-clear input.
var idle = Inputs{Empty: true}

func newCtl() *Controller { return New(true, 4, 8, 10) }

func TestDisabledControllerStaysActive(t *testing.T) {
	c := New(false, 0, 0, 0)
	for i := 0; i < 100; i++ {
		c.Step(idle)
	}
	if c.State() != Active || !c.IsOn() || c.PGAsserted() {
		t.Errorf("disabled controller changed state: %v", c.State())
	}
}

func TestGatesAfterTimeout(t *testing.T) {
	c := newCtl()
	for i := 0; i < 3; i++ {
		c.Step(idle)
		if c.State() == Gated {
			t.Fatalf("gated after %d idle cycles (timeout 4)", i+1)
		}
		if !c.IsOn() {
			t.Fatalf("draining controller must remain on")
		}
	}
	c.Step(idle)
	if c.State() != Gated {
		t.Fatalf("not gated after 4 idle cycles: %v", c.State())
	}
	if c.IsOn() || !c.PGAsserted() {
		t.Error("gated controller must be off and assert PG")
	}
}

func TestActivityResetsTimeout(t *testing.T) {
	c := newCtl()
	c.Step(idle)
	c.Step(idle)
	c.Step(Inputs{Empty: false}) // traffic resets the countdown
	for i := 0; i < 3; i++ {
		c.Step(idle)
	}
	if c.State() == Gated {
		t.Error("countdown must restart after activity")
	}
	c.Step(idle)
	if c.State() != Gated {
		t.Error("should gate after 4 fresh idle cycles")
	}
}

func TestWakeupLevelPreventsGating(t *testing.T) {
	c := newCtl()
	for i := 0; i < 20; i++ {
		c.Step(Inputs{Empty: true, Wakeup: true})
	}
	if c.State() != Active {
		t.Errorf("WU level must hold the router active: %v", c.State())
	}
}

func TestPunchHoldPreventsGating(t *testing.T) {
	c := newCtl()
	for i := 0; i < 20; i++ {
		c.Step(Inputs{Empty: true, PunchHold: true})
	}
	if c.State() != Active {
		t.Errorf("punch hold must prevent gating: %v", c.State())
	}
	if s := c.Stats(); s.GatingEvents != 0 {
		t.Errorf("no gating events expected, got %d", s.GatingEvents)
	}
}

// gate drives c to the Gated state.
func gate(c *Controller) {
	for i := 0; i < 10; i++ {
		c.Step(idle)
	}
}

func TestWakeupTakesExactlyTwakeupCycles(t *testing.T) {
	// A WU observed in cycle t must make the router usable in cycle
	// t + Twakeup, matching Section 2.2's handshake timing.
	c := newCtl()
	gate(c)
	if c.State() != Gated {
		t.Fatal("setup failed")
	}
	c.Step(Inputs{Empty: true, Wakeup: true}) // cycle t
	if c.State() != Waking {
		t.Fatalf("state after WU: %v", c.State())
	}
	for i := 1; i < 8; i++ { // cycles t+1 .. t+7
		c.Step(Inputs{Empty: true})
		if i < 7 && c.State() != Waking {
			t.Fatalf("cycle t+%d: %v, want waking", i, c.State())
		}
	}
	if c.State() != Active {
		t.Fatalf("after t+7 steps: %v, want active (usable in cycle t+8)", c.State())
	}
}

func TestPunchWakesGatedRouter(t *testing.T) {
	c := newCtl()
	gate(c)
	c.Step(Inputs{Empty: true, PunchHold: true})
	if c.State() != Waking {
		t.Fatalf("punch must wake: %v", c.State())
	}
	s := c.Stats()
	if s.WakeupsPunch != 1 || s.WakeupsWU != 0 {
		t.Errorf("wakeup attribution: %+v", s)
	}
}

func TestShortGatingCounted(t *testing.T) {
	c := newCtl()
	gate(c)
	// Wake after only 3 gated cycles: below the 10-cycle break-even.
	c.Step(idle)
	c.Step(idle)
	c.Step(Inputs{Empty: true, Wakeup: true})
	s := c.Stats()
	if s.GatingEvents != 1 || s.ShortGatings != 1 {
		t.Errorf("expected one short gating event: %+v", s)
	}
}

func TestLongGatingNotShort(t *testing.T) {
	c := newCtl()
	gate(c)
	for i := 0; i < 20; i++ {
		c.Step(idle)
	}
	c.Step(Inputs{Empty: true, Wakeup: true})
	if s := c.Stats(); s.ShortGatings != 0 {
		t.Errorf("20-cycle gating flagged short: %+v", s)
	}
}

func TestForceWake(t *testing.T) {
	// The controller keeps bit 67 of a two-word summary at PGAsserted.
	level := make([]uint64, 2)
	c := newCtl()
	c.TrackLevel(workset.Of(level, 67))
	gate(c)
	if !workset.Has(level, 67) {
		t.Fatal("gated controller left its pgLevel bit clear")
	}
	c.ForceWake()
	if c.State() != Waking {
		t.Errorf("ForceWake: %v", c.State())
	}
	if !workset.Has(level, 67) {
		t.Error("ForceWake cleared the pgLevel bit of a waking router")
	}
	for i := 1; i < 8; i++ {
		c.Step(idle)
	}
	if c.State() != Active || level[0] != 0 || level[1] != 0 {
		t.Errorf("woken router: state %v, pgLevel words %x", c.State(), level)
	}
	c2 := newCtl()
	c2.ForceWake() // no-op when active
	if c2.State() != Active {
		t.Errorf("ForceWake on active: %v", c2.State())
	}
}

func TestHooksFire(t *testing.T) {
	c := newCtl()
	gates, wakes := 0, 0
	c.SetHooks(func() { gates++ }, func() { wakes++ })
	gate(c)
	c.Step(Inputs{Empty: true, Wakeup: true})
	if gates != 1 || wakes != 1 {
		t.Errorf("hooks: gates=%d wakes=%d", gates, wakes)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { New(true, 1, 8, 10) },
		func() { New(true, 4, 0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFSMInvariants(t *testing.T) {
	// Property: under any input sequence, (a) PGAsserted and IsOn are
	// mutually exclusive and exhaustive, (b) the router never gates
	// while non-empty, (c) a gated router begins waking the cycle a
	// wakeup or punch arrives.
	f := func(seq []uint8) bool {
		c := newCtl()
		prev := c.State()
		for _, b := range seq {
			in := Inputs{Empty: b&1 == 0, Wakeup: b&2 != 0, PunchHold: b&4 != 0}
			c.Step(in)
			s := c.State()
			if c.IsOn() == c.PGAsserted() {
				return false
			}
			if s == Gated && prev != Gated && prev != Draining {
				return false // gating only from the idle countdown
			}
			if prev == Gated && (in.Wakeup || in.PunchHold) && s != Waking {
				return false
			}
			if s == Gated && !in.Empty && prev == Gated && !(in.Wakeup || in.PunchHold) {
				// A gated router cannot hold flits; Empty=false while
				// gated means the network violated the protocol — the
				// FSM itself stays gated, which is what we assert.
				if c.State() != Gated {
					return false
				}
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWakeRemaining(t *testing.T) {
	c := newCtl()
	gate(c)
	c.Step(Inputs{Empty: true, Wakeup: true})
	if c.WakeRemaining() != 7 {
		t.Errorf("WakeRemaining = %d, want 7", c.WakeRemaining())
	}
	c.Step(idle)
	if c.WakeRemaining() != 6 {
		t.Errorf("WakeRemaining = %d, want 6", c.WakeRemaining())
	}
	c2 := newCtl()
	if c2.WakeRemaining() != 0 {
		t.Error("active controller WakeRemaining must be 0")
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{Active: "active", Draining: "draining", Gated: "gated", Waking: "waking"}
	for s, w := range names {
		if s.String() != w {
			t.Errorf("%v", s)
		}
	}
}

func TestAdaptiveThrottleBacksOffOnChurn(t *testing.T) {
	c := newCtl()
	c.SetAdaptiveThrottle(true)
	// Induce churn: repeated 2-cycle gated periods (far below BET=10).
	for ev := 0; ev < 6; ev++ {
		gate(c)
		if c.State() != Gated {
			// Throttled: gating was refused, which is the point.
			break
		}
		c.Step(idle)
		c.Step(Inputs{Empty: true, Wakeup: true})
		for c.State() == Waking {
			c.Step(idle)
		}
	}
	// With the EWMA now far below break-even, a timeout expiry must be
	// vetoed.
	for i := 0; i < 10; i++ {
		c.Step(idle)
	}
	if c.State() == Gated {
		t.Fatal("throttle did not veto gating after sustained churn")
	}
	if c.Stats().SleepsBlocked == 0 {
		t.Error("vetoed sleeps not counted")
	}
}

func TestAdaptiveThrottleLeavesLongGatingsAlone(t *testing.T) {
	c := newCtl()
	c.SetAdaptiveThrottle(true)
	// Long gated periods (>= BET): the throttle must never engage.
	for ev := 0; ev < 6; ev++ {
		gate(c)
		if c.State() != Gated {
			t.Fatalf("event %d: gating refused despite healthy history", ev)
		}
		for i := 0; i < 40; i++ {
			c.Step(idle)
		}
		c.Step(Inputs{Empty: true, Wakeup: true})
		for c.State() == Waking {
			c.Step(idle)
		}
	}
	if c.Stats().SleepsBlocked != 0 {
		t.Errorf("throttle engaged on healthy gating: %+v", c.Stats())
	}
}
