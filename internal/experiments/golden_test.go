package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// -update regenerates golden/fullsystem.json from a fresh run (and is
// the documented way to retune the baseline after a deliberate model
// change). The refreshed file must still satisfy the headline claims —
// a golden that contradicts the paper's §6 numbers is refused.
var update = flag.Bool("update", false, "regenerate the committed golden baseline")

// TestGoldenFullSystem is the paper-§6 golden experiment suite: it
// reruns every PARSEC profile under every scheme with the committed
// seed and instruction budget, compares each (benchmark, scheme) cell
// against golden/fullsystem.json within the committed tolerance bands,
// and asserts the headline claims — ≥83% static energy saved and
// <0.4% execution-time penalty for PunchPG, plus the ~1 vs ~4
// gated-routers-per-packet contrast against ConvOpt-PG — on the fresh
// numbers. The simulator is deterministic, so a same-seed rerun
// reproduces the baseline exactly; the bands only absorb deliberate,
// reviewed retuning.
func TestGoldenFullSystem(t *testing.T) {
	g, err := LoadGolden()
	if err != nil || *update {
		g = DefaultGolden()
	}
	results, err := RunGolden(g)
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.CheckClaims(results); len(bad) > 0 {
		for _, v := range bad {
			t.Errorf("headline claim violated: %s", v)
		}
	}
	if *update {
		if t.Failed() {
			t.Fatal("refusing to write a golden baseline that violates the headline claims")
		}
		g.Capture(results)
		data, err := g.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden/fullsystem.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden baseline regenerated; re-run without -update to verify, then commit the diff")
		return
	}
	if devs := g.Compare(results); len(devs) > 0 {
		for _, d := range devs {
			t.Errorf("golden deviation: %s", d)
		}
		t.Log("if the change is deliberate, regenerate with: go test ./internal/experiments -run TestGoldenFullSystem -update")
	}
}

// TestGoldenReadmeTable keeps the README's "Full-system results" table
// generated from — and therefore in sync with — the committed golden
// baseline, the same way apicheck pins API.txt.
func TestGoldenReadmeTable(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Benchmarks) == 0 {
		t.Fatal("golden baseline has no cells; run -update first")
	}
	want := GoldenMarkdown(g)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), want) {
		t.Errorf("README.md full-system results table is out of sync with golden/fullsystem.json; replace it with:\n%s", want)
	}
}

// TestGoldenRejectsFabricOverride pins the guard: the baseline is
// recorded on one exact fabric and power calibration, so comparing it
// against numbers from another network or preset must fail loudly
// instead of as a wall of deviations. Checks and FullTick, which change
// no result, pass through; the recorded fabric and preset are admitted.
func TestGoldenRejectsFabricOverride(t *testing.T) {
	t.Parallel()
	g := DefaultGolden()
	for _, tc := range []struct {
		name string
		ov   Overrides
		ok   bool
	}{
		{"torus", Overrides{Topology: "torus", Width: 4, Height: 4}, false},
		{"small mesh", Overrides{Topology: "mesh", Width: 4, Height: 4}, false},
		{"preset", Overrides{PowerPreset: "dsent-22nm"}, false},
		{"recorded", Overrides{Checks: true, FullTick: true, Topology: "mesh", Width: 8, Height: 8, PowerPreset: "paper-hpca15"}, true},
	} {
		o, err := g.Options(tc.ov)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: golden accepted an override that contradicts the baseline", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if want := (Overrides{Checks: true, FullTick: true}); o.Overrides != want {
			t.Errorf("%s: golden runs with overrides %+v, want %+v", tc.name, o.Overrides, want)
		}
	}
}
