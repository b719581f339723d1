package powerpunch_test

import (
	"fmt"
	"sync"
	"testing"

	"powerpunch"
	"powerpunch/internal/traffic"
)

// runSynthetic builds a network for cfg, drives it with seeded
// synthetic traffic, and returns the run result plus the per-router
// report fingerprint.
func runSynthetic(t *testing.T, cfg powerpunch.Config, pat powerpunch.TrafficPattern, load float64) (powerpunch.RunResult, string) {
	t.Helper()
	net, err := powerpunch.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(powerpunch.NewSyntheticTraffic(pat, load, 11))
	return res, net.Report().String()
}

// TestRecyclingMatchesPlain is the differential for the pooled hot
// path: for every scheme, on every fabric, under both tick engines
// (active-set and FullTick), a run with packet recycling on must
// produce a RunResult (Detail included — the full energy breakdown and
// exact stage decomposition) and a per-router report identical to the
// same run with recycling off, and to the same run with the invariant
// engine on, which disables flit pooling altogether.
func TestRecyclingMatchesPlain(t *testing.T) {
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
		load float64
	}{
		{"uniform-0.30", powerpunch.Uniform(), 0.30},
		{"uniform-0.02", powerpunch.Uniform(), 0.02},
		// Hotspot concentrates ejections on one node, so its NI returns
		// most of the recycled packets and flits.
		{"hotspot-0.30", traffic.Hotspot{Node: 5, Frac: 0.5}, 0.30},
	}

	for _, fab := range fabrics {
		for _, s := range powerpunch.Schemes {
			for _, fullTick := range []bool{false, true} {
				for _, pat := range patterns {
					if pat.name == "hotspot-0.30" && fab.topo != "mesh" {
						continue // one hotspot fabric is enough for pool routing
					}
					fab, s, fullTick, pat := fab, s, fullTick, pat
					sched := "active"
					if fullTick {
						sched = "full"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%s", fab.topo, s, sched, pat.name), func(t *testing.T) {
						t.Parallel()
						cfg := powerpunch.DefaultConfig()
						cfg.Scheme = s
						cfg.Topology = fab.topo
						cfg.Width, cfg.Height = fab.width, fab.height
						cfg.WarmupCycles = 300
						cfg.MeasureCycles = 1500
						cfg.FullTick = fullTick

						plain, plainRep := runSynthetic(t, cfg, pat.p, pat.load)
						if plain.Summary.Ejected == 0 {
							t.Fatalf("degenerate run, nothing ejected: %+v", plain)
						}
						if e := plain.Detail.Energy.Buffer; e.Dynamic == 0 || e.Static == 0 {
							t.Errorf("buffer component missing energy: %+v", e)
						}
						recycled := cfg
						recycled.RecyclePackets = true
						checked := cfg
						checked.Checks = true
						for _, v := range []struct {
							name string
							cfg  powerpunch.Config
						}{{"recycled", recycled}, {"checked", checked}} {
							res, rep := runSynthetic(t, v.cfg, pat.p, pat.load)
							if res != plain {
								t.Errorf("%s result differs from plain:\nplain %+v\n%-5s %+v", v.name, plain, v.name, res)
							}
							if rep != plainRep {
								t.Errorf("%s per-router reports differ:\nplain:\n%s\n%s:\n%s", v.name, plainRep, v.name, rep)
							}
						}
					})
				}
			}
		}
	}
}

// TestParallelEnergyComponentsBitIdentical runs each point alone and
// then as several concurrent copies, the way experiments sweeps run
// their points side by side: every copy's per-component energy must
// equal the lone run's bit for bit, so concurrent Networks share no
// state that leaks into the energy ledger.
func TestParallelEnergyComponentsBitIdentical(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
	}
	for _, fab := range fabrics {
		for _, s := range powerpunch.Schemes {
			fab, s := fab, s
			t.Run(fmt.Sprintf("%s/%s", fab.topo, s), func(t *testing.T) {
				t.Parallel()
				cfg := powerpunch.DefaultConfig()
				cfg.Scheme = s
				cfg.Topology = fab.topo
				cfg.Width, cfg.Height = fab.width, fab.height
				cfg.WarmupCycles = 200
				cfg.MeasureCycles = 1200

				alone, _ := runSynthetic(t, cfg, powerpunch.Uniform(), 0.25)
				se := alone.Detail.Energy
				if se.Total() == 0 {
					t.Fatal("run accumulated no component energy")
				}
				const copies = 3
				var wg sync.WaitGroup
				energy := make([]powerpunch.EnergyBreakdown, copies)
				errs := make([]error, copies)
				for i := range energy {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						net, err := powerpunch.NewNetwork(cfg)
						if err != nil {
							errs[i] = err
							return
						}
						energy[i] = net.Run(powerpunch.NewSyntheticTraffic(powerpunch.Uniform(), 0.25, 11)).Detail.Energy
					}(i)
				}
				wg.Wait()
				for i, pe := range energy {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					if pe != se {
						t.Errorf("concurrent copy %d per-component energy differs from the lone run:\nalone      %+v\nconcurrent %+v",
							i, se, pe)
					}
				}
			})
		}
	}
}
