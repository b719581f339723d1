package powerpunch_test

import (
	"fmt"
	"strings"
	"testing"

	"powerpunch"
)

// runCMP drives one full-system CMP workload to completion on the
// given configuration with a counters probe and a JSONL trace writer
// attached, returning everything the golden differential compares: the
// run result, the workload's execution time, the probe report, and the
// full event trace.
func runCMP(t *testing.T, cfg powerpunch.Config, bench string, instr int64) (powerpunch.RunResult, int64, string, string) {
	t.Helper()
	prof, err := powerpunch.PARSECProfile(bench, instr)
	if err != nil {
		t.Fatal(err)
	}
	probe := powerpunch.NewCountersProbe()
	var trace strings.Builder
	tw := powerpunch.NewEventTraceWriter(&trace)
	net, err := powerpunch.NewNetwork(cfg, powerpunch.WithObserver(probe, tw))
	if err != nil {
		t.Fatal(err)
	}
	wl := powerpunch.NewWorkload(prof, net, 7)
	res := net.RunUntil(wl, 400_000)
	if !res.Drained {
		t.Fatal("workload incomplete")
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	var rep strings.Builder
	if err := probe.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	return res, wl.ExecutionTime(), rep.String(), trace.String()
}

// TestCMPModernGolden is the full-system counterpart of the synthetic
// golden differential: a CMP/PARSEC workload on the public API, on the
// topology layer (mesh and torus), must produce a bit-identical run
// result, execution time, probe report, AND JSONL event trace on both
// engines — active-set (the reference) and FullTick.
// The trace comparison is the strictest check available: every event's
// kind, node, cycle stamp, and payload, including the workload's own
// wl_miss/wl_fill/wl_dir protocol events.
func TestCMPModernGolden(t *testing.T) {
	fabrics := []struct {
		topo          string
		width, height int
	}{
		{"mesh", 4, 4},
		{"torus", 4, 4},
	}
	for _, fab := range fabrics {
		for _, s := range []powerpunch.Scheme{powerpunch.ConvOptPG, powerpunch.PowerPunchPG} {
			fab, s := fab, s
			t.Run(fmt.Sprintf("%s/%s", fab.topo, s), func(t *testing.T) {
				t.Parallel()
				base := powerpunch.DefaultConfig()
				base.Scheme = s
				base.Topology = fab.topo
				base.Width, base.Height = fab.width, fab.height
				base.WarmupCycles = 0
				base.MeasureCycles = 1 << 40

				ref, refExec, refProbe, refTrace := runCMP(t, base, "swaptions", 2500)
				if ref.Summary.Ejected == 0 {
					t.Fatalf("degenerate run, nothing ejected: %+v", ref)
				}
				if !strings.Contains(refTrace, `"wl_miss"`) || !strings.Contains(refTrace, `"wl_fill"`) {
					t.Error("trace carries no workload protocol events")
				}

				cfg := base
				cfg.FullTick = true
				res, exec, probe, trace := runCMP(t, cfg, "swaptions", 2500)
				if res != ref {
					t.Errorf("fulltick: run result differs:\nref %+v\ngot %+v", ref, res)
				}
				if exec != refExec {
					t.Errorf("fulltick: execution time differs: ref %d got %d", refExec, exec)
				}
				if probe != refProbe {
					t.Errorf("fulltick: probe reports differ:\nref:\n%s\ngot:\n%s", refProbe, probe)
				}
				if trace != refTrace {
					t.Error("fulltick: full event traces differ")
				}
			})
		}
	}
}

// TestCMPObserverDoesNotPerturb proves attaching the observability
// stack to a CMP run changes nothing about the simulation: the run
// result and execution time match an unobserved run exactly (the
// workload's event emission must not consume randomness or alter
// timing).
func TestCMPObserverDoesNotPerturb(t *testing.T) {
	run := func(observe bool) (powerpunch.RunResult, int64) {
		prof, err := powerpunch.PARSECProfile("ferret", 2500)
		if err != nil {
			t.Fatal(err)
		}
		cfg := powerpunch.DefaultConfig()
		cfg.Scheme = powerpunch.PowerPunchPG
		cfg.Width, cfg.Height = 4, 4
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		var opts []powerpunch.Option
		if observe {
			opts = append(opts, powerpunch.WithObserver(powerpunch.NewCountersProbe()))
		}
		net, err := powerpunch.NewNetwork(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		wl := powerpunch.NewWorkload(prof, net, 3)
		res := net.RunUntil(wl, 400_000)
		if !res.Drained {
			t.Fatal("workload incomplete")
		}
		return res, wl.ExecutionTime()
	}
	plain, plainExec := run(false)
	obs, obsExec := run(true)
	if plain != obs || plainExec != obsExec {
		t.Errorf("observer perturbed the run:\nplain    %+v exec=%d\nobserved %+v exec=%d",
			plain, plainExec, obs, obsExec)
	}
}
