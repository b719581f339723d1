package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerpunch/internal/config"
)

// Tiny fidelity overrides keep these integration smoke tests fast; the
// real statistics come from cmd/powerpunch and the benchmarks.

func TestTable1Output(t *testing.T) {
	out := FormatTable1()
	for _, want := range []string{"22", "5-bit", "{ 21, 36 }", "X=5 bits, Y=2 bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := FormatTable2()
	for _, want := range []string{"8x8 mesh", "128 bits/cycle", "3 VNs", "8 cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestAreaOutput(t *testing.T) {
	out := FormatArea()
	if !strings.Contains(out, "area overhead") {
		t.Error("area output malformed")
	}
}

func TestFullSystemExperimentSmoke(t *testing.T) {
	res, err := RunFullSystem(FullSystemOptions{
		Fidelity:   Quick,
		Benchmarks: []string{"swaptions"},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].PerScheme) != len(FullSystemSchemes) {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	m := res[0].PerScheme
	if !m[config.NoPG].Drained || !m[config.PowerPunchPG].Drained || !m[config.FlyOverPG].Drained {
		t.Error("runs did not drain")
	}
	// FlyOver gates aggressively (ConvOpt-style wake-on-demand plus
	// bypass-suppressed wakeups), so its savings must be substantial.
	if m[config.FlyOverPG].StaticSaved < 0.5 {
		t.Errorf("FlyOver-PG static savings %.2f implausibly low", m[config.FlyOverPG].StaticSaved)
	}
	// The paper's headline ordering on any benchmark.
	if m[config.ConvOptPG].AvgLatency <= m[config.NoPG].AvgLatency {
		t.Error("ConvOpt must pay a latency penalty")
	}
	if m[config.PowerPunchPG].AvgLatency >= m[config.ConvOptPG].AvgLatency {
		t.Error("PowerPunch-PG must beat ConvOpt on latency")
	}
	if m[config.PowerPunchPG].StaticSaved < 0.5 {
		t.Errorf("PowerPunch-PG static savings %.2f implausibly low", m[config.PowerPunchPG].StaticSaved)
	}
	for s, sm := range m {
		if sm.Components.Version != 1 {
			t.Errorf("%v: energy breakdown version = %d, want 1", s, sm.Components.Version)
		}
		if sm.Energy.Total() > 0 && sm.Components.Total() == 0 {
			t.Errorf("%v: aggregate energy %.3e but component view is empty", s, sm.Energy.Total())
		}
	}

	for _, format := range []func([]BenchResult) string{
		FormatFig7, FormatFig8, FormatFig9, FormatFig10, FormatFig11,
	} {
		if out := format(res); !strings.Contains(out, "swaptions") {
			t.Error("formatter dropped the benchmark row")
		}
	}
}

func TestLoadSweepSmoke(t *testing.T) {
	pts, err := RunLoadSweep(LoadSweepOptions{
		Fidelity: Quick,
		Patterns: []string{"uniform"},
		Rates:    []float64{0.01, 0.05},
		Schemes:  []config.Scheme{config.NoPG, config.PowerPunchPG},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	out := FormatFig12(pts, []config.Scheme{config.NoPG, config.PowerPunchPG})
	if !strings.Contains(out, "uniform") {
		t.Error("fig12 output malformed")
	}
	// Static power of the PG scheme must undercut No-PG at low load.
	var noPG, punch float64
	for _, p := range pts {
		if p.Rate == 0.01 {
			switch p.Scheme {
			case config.NoPG:
				noPG = p.StaticW
			case config.PowerPunchPG:
				punch = p.StaticW
			}
		}
	}
	if punch >= noPG {
		t.Errorf("PG static power %.3f >= No-PG %.3f at low load", punch, noPG)
	}
}

// TestScalabilityRejectsFabricOverride: the study sets its own mesh
// sizes, so a fabric override would print one fabric's numbers under
// three labels; it must be refused before any run starts.
func TestScalabilityRejectsFabricOverride(t *testing.T) {
	t.Parallel()
	ov := Overrides{Topology: "mesh", Width: 4, Height: 4}
	if _, err := RunScalability(SyntheticOptions{Fidelity: Quick, Overrides: ov}); err == nil {
		t.Fatal("RunScalability accepted a fabric override")
	}
}

func TestScalabilitySmoke(t *testing.T) {
	pts, err := RunScalability(SyntheticOptions{Fidelity: Quick, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("sizes = %d", len(pts))
	}
	for _, p := range pts {
		if p.Reduction <= 0 {
			t.Errorf("%dx%d: PowerPunch must reduce latency vs ConvOpt (got %.2f%%)",
				p.Width, p.Width, p.Reduction*100)
		}
	}
	// Section 6.6: the cumulative blocking penalty removed by Power
	// Punch grows with network size.
	if pts[2].SavedCycles <= pts[0].SavedCycles {
		t.Errorf("absolute cycles saved should grow with size: 4x4=%.1f 16x16=%.1f",
			pts[0].SavedCycles, pts[2].SavedCycles)
	}
	if out := FormatScalability(pts); !strings.Contains(out, "16x16") {
		t.Error("scalability output malformed")
	}
}

func TestRegistryCoversAllPaperArtifacts(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "scale", "area"} {
		if !ids[want] {
			t.Errorf("experiment registry missing %s", want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("1", "2")
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Errorf("table: %q", out)
	}
}

func TestCSVWriters(t *testing.T) {
	res, err := RunFullSystem(FullSystemOptions{Fidelity: Quick, Benchmarks: []string{"swaptions"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteFullSystemCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 1+4 { // header + 4 schemes
		t.Errorf("fullsystem csv has %d lines", lines)
	}

	pts, err := RunLoadSweep(LoadSweepOptions{
		Fidelity: Quick, Patterns: []string{"uniform"}, Rates: []float64{0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteLoadSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "uniform") {
		t.Error("loadsweep csv missing data")
	}

	sens := []SensitivityPoint{{RouterStages: 3, WakeupLatency: 8, PunchHops: 3,
		Latency: map[config.Scheme]float64{config.NoPG: 30}}}
	buf.Reset()
	if err := WriteSensitivityCSV(&buf, sens); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No-PG") {
		t.Error("sensitivity csv missing data")
	}
}

func TestHeatmapShowsSpatialGating(t *testing.T) {
	h, err := RunHeatmap(config.PowerPunchPG, SyntheticOptions{Fidelity: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.GatedFrac) != 64 {
		t.Fatalf("heatmap size %d", len(h.GatedFrac))
	}
	// The hotspot's column neighborhood must be warmer (less gated) than
	// the far corner.
	hot := h.GatedFrac[1*8+1]
	corner := h.GatedFrac[63]
	if hot >= corner {
		t.Errorf("hotspot router gated %.2f >= far corner %.2f", hot, corner)
	}
	if out := FormatHeatmap(h); !strings.Contains(out, "heatmap") {
		t.Error("heatmap formatting")
	}
}

func TestAblationIncludesBaselines(t *testing.T) {
	pts, err := RunAblation(SyntheticOptions{Fidelity: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, p := range pts {
		labels[p.Label] = true
	}
	for _, want := range []string{"hops=2", "hops=3 (paper)", "hops=4", "strict encoding", "Plain-PG (no opts)"} {
		if !labels[want] {
			t.Errorf("ablation missing variant %q", want)
		}
	}
	if out := FormatAblation(pts); !strings.Contains(out, "hops=3") {
		t.Error("ablation formatting")
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	// Force the concurrent path even on single-CPU machines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{0, 1, 3, 17, 100} {
		hits := make([]int32, n)
		var mu sync.Mutex
		parallelFor(n, func(i int) {
			mu.Lock()
			hits[i]++
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

// TestParallelForHandsOutSingleIndices pins the dispatch granularity:
// with two workers, index 0 blocks until every other index has run,
// which finishes only if the second worker can take indices 1..n-1 one
// by one. A scheme that hands out contiguous chunks strands index 1
// behind index 0 and times out here.
func TestParallelForHandsOutSingleIndices(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	const n = 24
	var others atomic.Int32
	allRan := make(chan struct{})
	timedOut := false
	parallelFor(n, func(i int) {
		if i == 0 {
			select {
			case <-allRan:
			case <-time.After(30 * time.Second):
				timedOut = true
			}
			return
		}
		if others.Add(1) == n-1 {
			close(allRan)
		}
	})
	if timedOut {
		t.Fatalf("index 0 waited 30 s: only %d of the other %d indices ran beside it", others.Load(), n-1)
	}
}

func TestParallelForPropagatesPanic(t *testing.T) {
	// Force the concurrent path even on single-CPU machines.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var ran int32
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic in fn was swallowed")
		}
		msg, ok := v.(string)
		// Poisoning may stop earlier failing indices from running at
		// all, so any failing index is acceptable — but the message
		// must carry the index, the value, and (implicitly) the stack.
		if !ok || !strings.Contains(msg, "panicked: boom ") {
			t.Fatalf("panic value %v should carry the failing index and cause", v)
		}
	}()
	// Panic on most indices: with naive recovery the feeding goroutine
	// deadlocks once every worker has died; here workers must drain the
	// channel and parallelFor must still return (by panicking) promptly.
	parallelFor(64, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i >= 7 {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
	t.Fatal("parallelFor returned without panicking")
}

func TestParallelRunsAreDeterministic(t *testing.T) {
	run := func() []LoadPoint {
		pts, err := RunLoadSweep(LoadSweepOptions{
			Fidelity: Quick,
			Patterns: []string{"uniform"},
			Rates:    []float64{0.01, 0.04},
			Schemes:  []config.Scheme{config.NoPG, config.PowerPunchPG},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across parallel runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSensitivitySmoke(t *testing.T) {
	pts, err := RunSensitivity(SensitivityOptions{Fidelity: Quick, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("cases = %d, want 6 (Figure 13)", len(pts))
	}
	for _, p := range pts {
		base := p.Latency[config.NoPG]
		if base <= 0 {
			t.Fatalf("%d-stage Twakeup=%d: no baseline latency", p.RouterStages, p.WakeupLatency)
		}
		if p.Latency[config.ConvOptPG] <= base {
			t.Errorf("%d-stage Twakeup=%d: ConvOpt (%f) should exceed No-PG (%f)",
				p.RouterStages, p.WakeupLatency, p.Latency[config.ConvOptPG], base)
		}
		if p.Latency[config.PowerPunchPG] >= p.Latency[config.ConvOptPG] {
			t.Errorf("%d-stage Twakeup=%d: PunchPG should beat ConvOpt", p.RouterStages, p.WakeupLatency)
		}
	}
	// Worst case: largest PunchPG penalty at (3-stage, Twakeup=10),
	// where the 3-hop punch's 9 cycles of slack cannot cover the wakeup.
	pen := func(p SensitivityPoint) float64 {
		return p.Latency[config.PowerPunchPG] / p.Latency[config.NoPG]
	}
	var worst SensitivityPoint
	for _, p := range pts {
		if worst.Latency == nil || pen(p) > pen(worst) {
			worst = p
		}
	}
	if worst.RouterStages != 3 || worst.WakeupLatency != 10 {
		t.Errorf("worst case at (%d-stage, Twakeup=%d), paper puts it at (3, 10)",
			worst.RouterStages, worst.WakeupLatency)
	}
	if out := FormatFig13(pts); !strings.Contains(out, "Twakeup") {
		t.Error("fig13 formatting")
	}
}

func TestDefaultRatesSpanToSaturation(t *testing.T) {
	for _, pat := range []string{"uniform", "transpose"} {
		for _, fid := range []Fidelity{Quick, Full} {
			rates := defaultRates(pat, fid)
			if len(rates) < 5 {
				t.Errorf("%s/%v: only %d rates", pat, fid, len(rates))
			}
			for i := 1; i < len(rates); i++ {
				if rates[i] <= rates[i-1] {
					t.Errorf("%s: rates not increasing: %v", pat, rates)
				}
			}
		}
	}
	if u, tr := defaultRates("uniform", Full), defaultRates("transpose", Full); u[len(u)-1] <= tr[len(tr)-1] {
		t.Error("uniform must sweep further than permutation patterns (paper Fig 12 axes)")
	}
}
