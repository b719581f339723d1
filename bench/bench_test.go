package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ref/*.json from full-size runs at the default seeds")

// cannedTraces is `go tool pprof -traces` output: a serial-engine
// stack, a parallel-engine wait, an obs sink under a phase, a GC worker,
// parked-node catch-up under maskBlocked, and a labelled sample.
const cannedTraces = `File: bench
Type: cpu
Duration: 1.50s, Total samples = 1.51s (100.67%)
-----------+-------------------------------------------------------
     1.50s   powerpunch/internal/router.(*Router).stepST (inline)
             powerpunch/internal/router.(*Router).Step
             powerpunch/internal/network.(*Network).stepActive
             powerpunch/internal/network.(*Network).Step
             powerpunch/internal/network.(*Network).Run
             main.runJob
             main.traced
             main.main
             runtime.main
-----------+-------------------------------------------------------
       4ms   runtime.futex
             runtime.notesleep
             powerpunch/internal/network.(*parEngine).runSection
             powerpunch/internal/network.(*parEngine).step
             powerpunch/internal/network.(*Network).Step
             powerpunch/internal/network.(*Network).Run
             main.runJob
-----------+-------------------------------------------------------
       1ms   powerpunch/internal/obs.(*Counters).Event
             powerpunch/internal/obs.(*Bus).Emit
             powerpunch/internal/router.(*Router).emitGrant
             powerpunch/internal/router.(*Router).Step
             powerpunch/internal/network.(*Network).stepActive
-----------+-------------------------------------------------------
       2ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
       3ms   powerpunch/internal/power.(*Accountant).TickStaticN
             powerpunch/internal/network.(*scheduler).catchUp
             powerpunch/internal/network.(*Network).maskBlocked (inline)
             powerpunch/internal/network.(*Network).stepActive
             powerpunch/internal/network.(*Network).Step
-----------+-------------------------------------------------------
      phase:  deliver
     500us   powerpunch/internal/router.(*Router).ReceiveFlit
             powerpunch/internal/network.(*Network).deliverNode
             powerpunch/internal/network.(*parWorker).secDeliver
             powerpunch/internal/network.(*parWorker).run
             powerpunch/internal/network.(*parEngine).workerLoop
-----------+-------------------------------------------------------
`

func TestAttribution(t *testing.T) {
	samples, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	if got := samples[0].stack[0]; got != "powerpunch/internal/router.(*Router).stepST" {
		t.Errorf("inline marker kept: %q", got)
	}
	byLayer, total := attribute(samples)
	want := map[string]float64{
		"router.step":     1.5e9,
		"network.par":     4e6,
		"obs":             1e6,
		"runtime.gc":      2e6,
		"network.mask":    3e6,
		"network.deliver": 0.5e6,
	}
	for l, ns := range want {
		if byLayer[l] != ns {
			t.Errorf("%s: %g ns, want %g", l, byLayer[l], ns)
		}
	}
	if len(byLayer) != len(want) || total != 1.5e9+10.5e6 {
		t.Errorf("layers %v, total %g", byLayer, total)
	}
	for l := range byLayer {
		if !contains(layers, l) {
			t.Errorf("layer %q is not reported", l)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestGoldenSeed(t *testing.T) {
	for n, want := range map[int64]int64{12: 12, 1: 1, 100: 100, 3: 4, 40: 41, 112: 12, 103: 4, 0: 100, -1: 99} {
		if got := goldenSeed(n); got != want {
			t.Errorf("goldenSeed(%d) = %d, want %d", n, got, want)
		}
	}
	for n := int64(-300); n <= 300; n++ {
		if s := goldenSeed(n); s < 1 || s > 100 || flyOverDeadlocks[s] {
			t.Errorf("goldenSeed(%d) = %d", n, s)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range f.EndToEnd {
		names = append(names, m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		names = append(names, m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.Name)
	}
	if got := names[:len(f.Workloads)]; !equalSets(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reduced are the three workloads at a size a unit test can afford.
func reduced() []workload {
	return []workload{
		goldenWorkload(300),
		fig12Workload([]string{"uniform"}, []float64{0.05}),
		mesh64Workload(8, 100, 200),
	}
}

// TestEmittedMetrics runs each reduced workload untraced and traced and
// checks that the metrics emitted are exactly those BENCHMARK.json
// names, with its units, that every check passes, and that the layer
// shares cover the profile.
func TestEmittedMetrics(t *testing.T) {
	f := loadBenchmarkFile(t)
	units := map[string]string{}
	var e2e, perLayer []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		perLayer = append(perLayer, m.Name)
		units[m.Name] = m.Unit
	}
	for _, w := range reduced() {
		untraced, err := measure(w, w.DefaultSeed, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := traced(w, w.DefaultSeed, t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []struct {
			run  *outcome
			want []string
		}{{untraced, e2e}, {tr, perLayer}} {
			var got []string
			for n, m := range o.run.metrics {
				got = append(got, n)
				if m.Unit != units[n] {
					t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.Name, n, m.Unit, units[n])
				}
			}
			if !equalSets(got, o.want) {
				t.Errorf("%s trace=%d emits %v\nBENCHMARK.json names %v", w.Name, o.run.info.Trace, got, o.want)
			}
			if len(o.run.failures) > 0 {
				t.Errorf("%s trace=%d: failures %v", w.Name, o.run.info.Trace, o.run.failures)
			}
		}
		if tr.info.ReplicaDigest != untraced.info.SimDigest {
			t.Errorf("%s: replica digest %s, untraced %s", w.Name, tr.info.ReplicaDigest, untraced.info.SimDigest)
		}
		var sum float64
		for _, l := range layers {
			sum += tr.metrics[l+".share"].Value
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: layer shares sum to %g", w.Name, sum)
		}
	}
}

// TestReference rewrites ref/*.json with -update. Without it, each
// reference must parse and hold one point per simulation of its
// workload at the default seed.
func TestReference(t *testing.T) {
	wantPoints := map[string]int{"fig12": 54, "mesh64": 1}
	for _, w := range workloads() {
		if w.Points == nil {
			continue
		}
		if *update {
			sims, err := w.Run(w.DefaultSeed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.MarshalIndent(refFile{Workload: w.Name, Seed: w.DefaultSeed, Points: w.Points(sims)}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("ref", w.Name+".json"), append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ref, err := loadRef(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[string]bool{}
		for _, p := range ref.Points {
			ids[p.ID] = true
		}
		if ref.Workload != w.Name || ref.Seed != w.DefaultSeed || len(ids) != wantPoints[w.Name] || len(ref.Points) != len(ids) {
			t.Errorf("ref/%s.json: workload %q seed %d, %d points (%d distinct), want %d",
				w.Name, ref.Workload, ref.Seed, len(ref.Points), len(ids), wantPoints[w.Name])
		}
	}
}
