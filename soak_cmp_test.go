package powerpunch_test

import (
	"fmt"
	"testing"

	"powerpunch"
)

// TestSoakCMP is the full-system soak (Makefile `soak-cmp`, run under
// the race detector in CI): one short PARSEC profile per gating scheme
// driven to completion through the public API with the invariant
// engine sweeping every cycle and a counters probe attached, so the
// workload's delivery callbacks, delayed submissions, and buffered
// event flushes all run under -race. The profiles rotate across
// schemes so the soak touches a spread of workload behaviours (bursty,
// memory-bound, invalidation-heavy) rather than one profile per run;
// the FlyOver leg soaks the bypass relay under a real workload.
func TestSoakCMP(t *testing.T) {
	cases := []struct {
		scheme powerpunch.Scheme
		bench  string
	}{
		{powerpunch.NoPG, "blackscholes"},
		{powerpunch.ConvOptPG, "canneal"},
		{powerpunch.PowerPunchSignal, "ferret"},
		{powerpunch.PowerPunchPG, "fluidanimate"},
		{powerpunch.FlyOverPG, "swaptions"},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s/%s", c.scheme, c.bench), func(t *testing.T) {
			t.Parallel()
			prof, err := powerpunch.PARSECProfile(c.bench, 3000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := powerpunch.DefaultConfig()
			cfg.Scheme = c.scheme
			cfg.Width, cfg.Height = 4, 4
			cfg.WarmupCycles = 0
			cfg.MeasureCycles = 1 << 40
			cfg.Checks = true
			cfg.CheckInterval = 1
			probe := powerpunch.NewCountersProbe()
			net, err := powerpunch.NewNetwork(cfg, powerpunch.WithObserver(probe))
			if err != nil {
				t.Fatal(err)
			}
			wl := powerpunch.NewWorkload(prof, net, 17)
			res := net.RunUntil(wl, 400_000)
			if !res.Drained {
				t.Fatalf("workload incomplete: %+v", res)
			}
			if res.Summary.Ejected == 0 {
				t.Fatal("degenerate soak, nothing ejected")
			}
			if wl.ExecutionTime() == 0 {
				t.Fatal("workload reported zero execution time")
			}
		})
	}
}
