package powerpunch_test

import (
	"fmt"
	"testing"

	"powerpunch"
	"powerpunch/internal/traffic"
)

// TestActiveSetMatchesFullWalk is the golden-metrics equivalence suite
// for the active-set tick scheduler: every scheme, on every fabric
// (mesh, torus, ring), over three traffic patterns and three load
// points, must produce results bit-identical to the seed full-walk tick
// (Config.FullTick). RunResult equality covers every headline metric —
// the stats summary, the full energy breakdown, static savings and
// gating-event counts — and since experiments.SchemeMetrics is derived
// field-by-field from RunResult, equality here implies SchemeMetrics
// equality for every experiment driver. The per-router utilization
// report is fingerprinted as well so the gated-cycle counts of routers
// the active set skipped are proven exact per node, not just in
// aggregate. The adaptive-throttle extension runs as one more input,
// on ConvOpt-PG and PowerPunch-PG, with a measure window long enough
// for it to veto sleeps.
func TestActiveSetMatchesFullWalk(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	patterns := []struct {
		name string
		p    powerpunch.TrafficPattern
	}{
		{"uniform", powerpunch.Uniform()},
		{"transpose", powerpunch.TransposeTraffic()},
		{"hotspot", traffic.Hotspot{Node: 5, Frac: 0.5}},
	}
	loads := []float64{0.02, 0.10, 0.30}

	for _, fab := range fabrics {
		for _, s := range powerpunch.Schemes {
			for _, pat := range patterns {
				for _, load := range loads {
					fab, s, pat, load := fab, s, pat, load
					name := fmt.Sprintf("%s/%s/%s/load=%.2f", fab.topo, s, pat.name, load)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := powerpunch.DefaultConfig()
						cfg.Scheme = s
						cfg.Topology = fab.topo
						cfg.Width, cfg.Height = fab.width, fab.height
						cfg.WarmupCycles = 300
						cfg.MeasureCycles = 1500
						matchFullWalk(t, cfg, pat.p, load)
					})
				}
			}
		}
	}
	for _, s := range []powerpunch.Scheme{powerpunch.ConvOptPG, powerpunch.PowerPunchPG} {
		t.Run(fmt.Sprintf("mesh/%s/uniform/load=0.05/throttle", s), func(t *testing.T) {
			t.Parallel()
			cfg := powerpunch.DefaultConfig()
			cfg.Scheme = s
			cfg.Width, cfg.Height = 4, 4
			cfg.WarmupCycles = 300
			cfg.MeasureCycles = 6000
			cfg.AdaptiveThrottle = true
			full := matchFullWalk(t, cfg, powerpunch.Uniform(), 0.05)
			t.Logf("sleeps blocked: %d", full.Detail.PG.SleepsBlocked)
			if full.Detail.PG.SleepsBlocked == 0 {
				t.Fatalf("the throttle never vetoed a sleep: %+v", full.Detail.PG)
			}
		})
	}
}

// matchFullWalk runs cfg under the full walk and under the active set
// and fails unless the results and per-router reports are identical. It
// returns the full walk's result.
func matchFullWalk(t *testing.T, cfg powerpunch.Config, p powerpunch.TrafficPattern, load float64) powerpunch.RunResult {
	t.Helper()
	run := func(fullTick bool) (powerpunch.RunResult, string) {
		cfg.FullTick = fullTick
		net, err := powerpunch.NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := net.Run(powerpunch.NewSyntheticTraffic(p, load, 11))
		return res, net.Report().String()
	}
	full, fullRep := run(true)
	act, actRep := run(false)
	if act != full {
		t.Errorf("active-set result differs from full walk:\nfull   %+v\nactive %+v", full, act)
	}
	if actRep != fullRep {
		t.Errorf("per-router reports differ:\nfull:\n%s\nactive:\n%s", fullRep, actRep)
	}
	if full.Summary.Ejected == 0 {
		t.Fatalf("degenerate run, nothing ejected: %+v", full)
	}
	return full
}
