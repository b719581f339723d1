package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestBenchFamily(t *testing.T) {
	cases := map[string]string{
		"TickLarge/PowerPunch-PG/8x8/load=0.10": "TickLarge",
		"Tick/No-PG/load=0.02":                  "Tick",
		"NetworkStepIdle":                       "NetworkStepIdle",
	}
	for name, want := range cases {
		if got := benchFamily(name); got != want {
			t.Errorf("benchFamily(%q) = %q, want %q", name, got, want)
		}
	}
}

// entryPair builds matching base/cur entries named fam/i with the given
// ns/op ratio applied on the cur side.
func addPair(base map[string]BenchEntry, cur []BenchEntry, fam string, i int, baseNs, ratio float64) []BenchEntry {
	name := fam + "/row" + string(rune('a'+i))
	base[name] = BenchEntry{Name: name, Metrics: map[string]float64{"ns/op": baseNs}}
	return append(cur, BenchEntry{Name: name, Metrics: map[string]float64{"ns/op": baseNs * ratio}})
}

func TestSpeedFactorsPerFamily(t *testing.T) {
	base := map[string]BenchEntry{}
	var cur []BenchEntry
	// A 7-row family in a slow phase (all 1.25x), a 7-row family at
	// parity, and a 3-row family (below minFamilyRows) at 1.10x.
	for i := 0; i < 7; i++ {
		cur = addPair(base, cur, "SlowFam", i, 1000, 1.25)
		cur = addPair(base, cur, "FlatFam", i, 2000, 1.00)
	}
	for i := 0; i < 3; i++ {
		cur = addPair(base, cur, "TinyFam", i, 500, 1.10)
	}
	global, byFam := speedFactors(base, cur)
	if got := byFam["SlowFam"]; math.Abs(got-1.25) > 1e-9 {
		t.Errorf("SlowFam drift = %v, want 1.25", got)
	}
	if got := byFam["FlatFam"]; math.Abs(got-1.00) > 1e-9 {
		t.Errorf("FlatFam drift = %v, want 1.00", got)
	}
	if _, ok := byFam["TinyFam"]; ok {
		t.Errorf("TinyFam has only 3 rows; must fall back to the global median, got %v", byFam["TinyFam"])
	}
	// Global median over 17 ratios: eight 1.00s, three 1.10s, seven
	// 1.25s -> the 9th sorted value is 1.10.
	if math.Abs(global-1.10) > 1e-9 {
		t.Errorf("global drift = %v, want 1.10", global)
	}
	// A single regressed row cannot become its family's estimate.
	cur2 := make([]BenchEntry, len(cur))
	copy(cur2, cur)
	for i := range cur2 {
		if cur2[i].Name == "FlatFam/rowa" {
			cur2[i].Metrics = map[string]float64{"ns/op": 2000 * 1.9}
		}
	}
	_, byFam2 := speedFactors(base, cur2)
	if got := byFam2["FlatFam"]; math.Abs(got-1.00) > 1e-9 {
		t.Errorf("FlatFam drift with one regressed row = %v, want 1.00 (median must absorb it)", got)
	}
}

// TestBenchHostJSON: bench-json's host block uses the end-to-end
// benchmark's JSON names, and a baseline written before the block
// existed reads back with a nil Host.
func TestBenchHostJSON(t *testing.T) {
	h := hostInfo()
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.CPUModel == "" || h.Kernel == "" {
		t.Errorf("hostInfo() = %+v, want every field set", h)
	}
	buf, err := json.Marshal(BenchBaseline{Date: "d", GoVersion: "go", Host: h})
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Host map[string]any `json:"host"`
	}
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "cpu_model", "kernel"} {
		if _, ok := raw.Host[k]; !ok {
			t.Errorf("host block %s has no %q", buf, k)
		}
	}
	var old BenchBaseline
	if err := json.Unmarshal([]byte(`{"date":"2026-10-17","go":"go1.24.0","benchmarks":[]}`), &old); err != nil {
		t.Fatal(err)
	}
	if old.Host != nil {
		t.Errorf("baseline without a host block read back host %+v", old.Host)
	}
}

// TestCompareHosts: bench-diff prints both hosts, refuses differing
// hosts unless -cross-host, and compares a run without a host block
// with a warning.
func TestCompareHosts(t *testing.T) {
	a := &BenchHost{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu A", Kernel: "6.1"}
	b := &BenchHost{NProc: 8, GOMAXPROCS: 8, CPUModel: "cpu B", Kernel: "6.1"}
	same := *a
	for _, tc := range []struct {
		name      string
		base, cur *BenchHost
		crossHost bool
		fail      bool
		warn      bool
	}{
		{"same", a, &same, false, false, false},
		{"differ", a, b, false, true, false},
		{"differ cross-host", a, b, true, false, true},
		{"no base host", nil, b, false, false, true},
		{"no new host", a, nil, false, false, true},
	} {
		var out strings.Builder
		err := compareHosts(&out, tc.base, tc.cur, tc.crossHost)
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fail)
		}
		if got := strings.Contains(out.String(), "WARNING"); got != tc.warn {
			t.Errorf("%s: warning printed %v, want %v:\n%s", tc.name, got, tc.warn, out.String())
		}
		if want := "base host: " + tc.base.String(); !strings.Contains(out.String(), want) {
			t.Errorf("%s: output %q lacks %q", tc.name, out.String(), want)
		}
		if want := "new host:  " + tc.cur.String(); !strings.Contains(out.String(), want) {
			t.Errorf("%s: output %q lacks %q", tc.name, out.String(), want)
		}
	}
}
