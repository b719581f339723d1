package experiments

import (
	"testing"

	"powerpunch/internal/config"
)

// TestAllDriversCleanUnderChecks runs every experiment driver with the
// cycle-level invariant engine enabled (Overrides.Checks, the CLI's
// -checks flag). A violation panics with a replayable artifact, so a green run
// here certifies that all four schemes of the paper's evaluation —
// plus the Plain-PG ablation baseline — satisfy every invariant across
// the full driver matrix: full-system workloads, synthetic load sweeps,
// the sensitivity study, scalability, ablation, and the heatmap. The
// shapes are reduced (one benchmark, few rates) but every code path a
// figure exercises is covered, including in -short mode: this test is
// part of the tier-2 correctness gate (see Makefile `check`).
func TestAllDriversCleanUnderChecks(t *testing.T) {
	t.Parallel()
	checks := Overrides{Checks: true}
	opts := SyntheticOptions{Fidelity: Quick, Seed: 2, Overrides: checks}

	t.Run("fullsystem", func(t *testing.T) {
		if _, err := RunFullSystem(FullSystemOptions{
			Fidelity: Quick, Benchmarks: []string{"swaptions"}, Seed: 2, Overrides: checks,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("loadsweep", func(t *testing.T) {
		patterns, rates := []string{"uniform", "transpose"}, []float64{0.01, 0.04}
		if raceEnabled {
			patterns, rates = []string{"uniform"}, []float64{0.02}
		}
		if _, err := RunLoadSweep(LoadSweepOptions{
			Fidelity:  Quick,
			Patterns:  patterns,
			Rates:     rates,
			Schemes:   config.Schemes,
			Overrides: checks,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sensitivity", func(t *testing.T) {
		if testing.Short() || raceEnabled {
			// The full case matrix is the slowest driver; its scheme
			// coverage is duplicated by loadsweep+scalability+ablation.
			t.Skip("sensitivity matrix covered by the full run")
		}
		if _, err := RunSensitivity(SensitivityOptions{Fidelity: Quick, Seed: 2, PunchHops: 3, Overrides: checks}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("scalability", func(t *testing.T) {
		if raceEnabled {
			// The 16x16 mesh dominates; the schemes it runs are already
			// checked on 8x8 above.
			t.Skip("race build: scalability covered by the full run")
		}
		if _, err := RunScalability(opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ablation", func(t *testing.T) {
		if _, err := RunAblation(opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("heatmap", func(t *testing.T) {
		for _, s := range []config.Scheme{config.ConvOptPG, config.PowerPunchPG} {
			if _, err := RunHeatmap(s, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
}
