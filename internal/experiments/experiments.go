// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6), each regenerating the corresponding
// rows/series: the four-scheme comparison on PARSEC-like full-system
// workloads (Figures 7-11), the synthetic load sweeps (Figure 12), the
// wakeup-latency sensitivity study (Figure 13), the punch-signal
// encoding (Table 1), the configuration summary (Table 2), and the
// scalability and area analyses of Section 6.6.
//
// Absolute numbers come from this repository's simulator and power
// model, not the authors' gem5/DSENT testbed; the quantities to compare
// are the shapes: which scheme wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"powerpunch/internal/config"
	"powerpunch/internal/network"
	"powerpunch/internal/power"
)

// Overrides are the run-wide settings layered over every run a
// simulation-backed driver launches (the CLI's -checks, -fulltick,
// -topo/-width/-height and -power-preset). The zero value changes
// nothing: each driver runs the paper's configuration.
type Overrides struct {
	// Checks turns the cycle-level invariant engine (config.Checks) on.
	// The engine costs simulation throughput, so it is opted into
	// rather than paid on every figure regeneration.
	Checks bool
	// FullTick runs on the full-walk scheduler. Results are
	// bit-identical to the active-set scheduler either way; the field
	// exists so sweeps can cross-check the two end to end.
	FullTick bool
	// Topology, Width and Height replace the fabric when any of them is
	// set. The analytic paper artifacts (Table 1, Table 2, the area
	// model) stay on the mesh they describe.
	Topology      string
	Width, Height int
	// PowerPreset replaces the power-model calibration when non-empty.
	PowerPreset string
}

// fabric reports whether o replaces the fabric.
func (o Overrides) fabric() bool { return o.Topology != "" || o.Width != 0 || o.Height != 0 }

// Validate checks o against the paper's default parameters, so a bad
// topology or an unknown power preset (a *config.UnknownPowerPresetError)
// fails once, up front, instead of once per job.
func (o Overrides) Validate() error {
	cfg := o.apply(config.Default())
	return cfg.Validate()
}

// apply stamps o onto one run's configuration; every driver funnels
// its config through here.
func (o Overrides) apply(cfg config.Config) config.Config {
	cfg.Checks = cfg.Checks || o.Checks
	cfg.FullTick = cfg.FullTick || o.FullTick
	if o.fabric() {
		cfg.Topology, cfg.Width, cfg.Height = o.Topology, o.Width, o.Height
	}
	if o.PowerPreset != "" {
		cfg.PowerPreset = o.PowerPreset
	}
	return cfg
}

// Fidelity scales experiment cost: Quick keeps unit-test and benchmark
// runtimes low; Full reproduces the paper-quality statistics.
type Fidelity int

// Fidelity levels.
const (
	Quick Fidelity = iota
	Full
)

// instrPerCore returns the per-core instruction budget for full-system
// runs at fidelity f.
func (f Fidelity) instrPerCore() int64 {
	if f == Full {
		return 60_000
	}
	return 12_000
}

// measureCycles returns the synthetic measurement window at fidelity f.
func (f Fidelity) measureCycles() int64 {
	if f == Full {
		return 40_000
	}
	return 8_000
}

// warmupCycles returns the synthetic warmup window at fidelity f.
func (f Fidelity) warmupCycles() int64 {
	if f == Full {
		return 8_000
	}
	return 2_000
}

// SyntheticOptions parameterizes the synthetic-traffic drivers that
// need only a fidelity and a seed: RunAblation, RunHeatmap and
// RunScalability.
type SyntheticOptions struct {
	Fidelity  Fidelity
	Seed      int64
	Overrides Overrides
}

// SchemeMetrics are the per-scheme measurements every full-system
// experiment shares.
type SchemeMetrics struct {
	AvgLatency  float64                 // cycles (Figure 7 / 12 / 13)
	ExecTime    int64                   // cycles (Figure 8)
	Blocked     float64                 // powered-off routers per packet (Figure 9)
	WakeWait    float64                 // wakeup-wait cycles per packet (Figure 10)
	Energy      power.Breakdown         // float-accumulated aggregate (the regression oracle)
	Components  network.EnergyBreakdown // counter-derived per-component split (DSENT-style)
	StaticSaved float64                 // fraction of No-PG static energy saved
	AvgStaticW  float64                 // watts (Figure 12, lower row)
	Packets     int64
	Drained     bool

	// Wakeup split from the counters probe — only populated when
	// FullSystemOptions.Observe is set. The exposed-vs-hidden ratio is
	// the paper's §6 instrument for the "~1 vs ~4 gated routers per
	// packet" contrast between PunchPG and ConvOpt-PG.
	PunchWakeups int64   // wake windows triggered by punch signals
	ConvWakeups  int64   // wake windows triggered conventionally
	HiddenFrac   float64 // fraction of wakeup cycles hidden from traffic
}

// baseConfig returns the paper's default configuration adjusted for
// full-system runs (no warmup: execution time is measured from cycle 0).
func baseConfig() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	return cfg
}

// table is a minimal text-table builder shared by the experiment
// formatters.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Registry maps experiment IDs to human descriptions, for the CLI.
func Registry() []struct{ ID, Description string } {
	return []struct{ ID, Description string }{
		{"table1", "Table 1: punch-signal encoding of an X+ channel (22 sets, 5 bits)"},
		{"table2", "Table 2: key simulation parameters"},
		{"fig7", "Figure 7: average packet latency per PARSEC benchmark, 4 schemes"},
		{"fig8", "Figure 8: execution time normalized to No-PG"},
		{"fig9", "Figure 9: powered-off routers encountered per packet"},
		{"fig10", "Figure 10: cycles per packet waiting for router wakeup"},
		{"fig11", "Figure 11: router energy breakdown (dynamic/static/overhead)"},
		{"golden", "Section 6 headline claims vs the committed golden baseline"},
		{"fig12", "Figure 12: latency & static power across the full load range"},
		{"fig13", "Figure 13: wakeup-latency and pipeline sensitivity"},
		{"scale", "Section 6.6(2): scalability across 4x4/8x8/16x16 meshes"},
		{"area", "Section 6.6(1): punch wiring/logic area overhead"},
		{"ablation", "Extension: punch hop-count / timeout / strict-encoding / baseline ablation"},
		{"heatmap", "Extension: per-router gated-time heatmap under hotspot traffic"},
	}
}

// sortedSchemeNames returns scheme column labels in presentation order.
func schemeLabels() []string {
	out := make([]string, len(config.Schemes))
	for i, s := range config.Schemes {
		out[i] = s.String()
	}
	return out
}

// fmtF formats a float with 2 decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtPct formats a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// keysSorted returns map keys sorted (helper for deterministic output).
func keysSorted[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
