package network

import (
	"fmt"
	"math/rand"
	"testing"

	"powerpunch/internal/config"
)

// TestWorkSetsTrackState checks every work summary bit against the state
// it summarizes after every cycle of active-set runs, through load and
// the drain that follows. Both tick engines read the summaries, so the
// engine differential cannot catch a stale bit; this test can.
func TestWorkSetsTrackState(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	for _, fab := range fabrics {
		for _, s := range config.AllSchemes {
			for _, rate := range []float64{0.30, 0.02} {
				fab, s, rate := fab, s, rate
				t.Run(fmt.Sprintf("%s/%v/%.2f", fab.topo, s, rate), func(t *testing.T) {
					t.Parallel()
					cfg := config.Default()
					cfg.Scheme = s
					cfg.Topology = fab.topo
					cfg.Width, cfg.Height = fab.width, fab.height
					cfg.WarmupCycles = 0
					cfg.MeasureCycles = 1 << 40
					n := mustNew(t, cfg)
					d := &randomDriver{rng: rand.New(rand.NewSource(7)), rate: rate, until: 400}
					for cyc := 0; cyc < 400; cyc++ {
						d.Tick(n, n.Now())
						n.Step()
						n.CheckInvariants()
					}
					for cyc := 0; cyc < 20_000 && !n.Quiesced(); cyc++ {
						n.Step()
						n.CheckInvariants()
					}
					if !n.Quiesced() {
						t.Fatal("did not quiesce")
					}
					// Idle cycles after the drain gate the routers and park
					// the nodes; the summaries must follow.
					for cyc := 0; cyc < 50; cyc++ {
						n.Step()
						n.CheckInvariants()
					}
				})
			}
		}
	}
}
