package main

import (
	"math"
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
