package power_test

import (
	"testing"

	"powerpunch/internal/pg"
	"powerpunch/internal/power"
)

// TestWakingLeaksLikeOn drives a controller through a gate and a wake
// with its hooks keeping the gated count, as the network wires them, and
// checks that only its Gated cycles are charged as gated: its Waking
// cycles leak like powered-on ones (the rail is charging).
func TestWakingLeaksLikeOn(t *testing.T) {
	a := power.NewAccountant(1, power.DefaultConstants())
	a.SetEnabled(true)
	c := pg.New(true, 2, 8, 10)
	gated := 0
	c.SetHooks(func() { gated++ }, func() { gated-- })
	var gatedCycles, wakingCycles int64
	for now := int64(0); now < 40; now++ {
		c.Step(now, pg.Inputs{Empty: true, Wakeup: now == 20})
		a.TickCycle(gated)
		switch c.State() {
		case pg.Gated:
			gatedCycles++
		case pg.Waking:
			wakingCycles++
		}
	}
	if gatedCycles == 0 || wakingCycles == 0 {
		t.Fatalf("scenario did not gate and wake: %d gated, %d waking cycles", gatedCycles, wakingCycles)
	}
	if got, want := a.Count(power.EvGatedCycle), gatedCycles; got != want {
		t.Errorf("gated router-cycles = %d, want %d", got, want)
	}
	if got, want := a.Count(power.EvOnCycle), 40-gatedCycles; got != want {
		t.Errorf("on router-cycles = %d, want %d (the %d waking cycles among them)", got, want, wakingCycles)
	}
}
