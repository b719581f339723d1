package experiments

import (
	"fmt"
	"strings"

	"powerpunch/internal/cmp"
	"powerpunch/internal/config"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/parsec"
)

// FullSystemSchemes is the scheme set the full-system suite runs: the
// paper's four (config.Schemes, in presentation order) plus the
// FlyOver-style bypass scheme. Each (benchmark, scheme) cell is an
// independent same-seed simulation, so extending this list adds cells
// without perturbing the existing ones.
var FullSystemSchemes = []config.Scheme{
	config.NoPG, config.ConvOptPG, config.PowerPunchSignal, config.PowerPunchPG, config.FlyOverPG,
}

// BenchResult holds one benchmark's per-scheme comparison.
type BenchResult struct {
	Bench     string
	PerScheme map[config.Scheme]SchemeMetrics
}

// FullSystemOptions parameterizes the PARSEC-style experiments.
type FullSystemOptions struct {
	Fidelity   Fidelity
	Benchmarks []string // defaults to parsec.Benchmarks
	Seed       int64
	MaxCycles  int64 // safety bound per run
	// InstrPerCore overrides the fidelity's per-core instruction budget
	// when positive (the golden suite pins an exact budget so its
	// committed numbers stay meaningful across fidelity retuning).
	InstrPerCore int64
	// Observe attaches a counters probe to every run and fills in the
	// wakeup-split fields of SchemeMetrics (PunchWakeups, ConvWakeups,
	// HiddenFrac — the paper's §6 blocking analysis). Off by default:
	// probes cost a per-event fan-out on the hot path.
	Observe   bool
	Overrides Overrides
}

func (o *FullSystemOptions) defaults() {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = parsec.Benchmarks
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 5_000_000
	}
	if o.InstrPerCore == 0 {
		o.InstrPerCore = o.Fidelity.instrPerCore()
	}
}

// RunFullSystem executes every benchmark under every scheme and returns
// the complete metric set; Figures 7-11 are different projections of
// it. The (benchmark, scheme) runs are independent simulations and
// execute in parallel across GOMAXPROCS workers.
func RunFullSystem(o FullSystemOptions) ([]BenchResult, error) {
	o.defaults()
	nb, ns := len(o.Benchmarks), len(FullSystemSchemes)
	metrics := make([]SchemeMetrics, nb*ns)
	errs := make([]error, nb*ns)

	parallelFor(nb*ns, func(i int) {
		bench := o.Benchmarks[i/ns]
		s := FullSystemSchemes[i%ns]
		prof, err := parsec.Profile(bench, o.InstrPerCore)
		if err != nil {
			errs[i] = err
			return
		}
		cfg := o.Overrides.apply(baseConfig().WithScheme(s))
		net, err := network.New(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: %s/%v: %w", bench, s, err)
			return
		}
		var probe *obs.Counters
		if o.Observe {
			probe = &obs.Counters{}
			net.Observe(probe)
		}
		sys := cmp.NewSystem(prof, net, o.Seed)
		res := net.RunUntil(sys, o.MaxCycles)
		metrics[i] = SchemeMetrics{
			AvgLatency:  res.Summary.AvgLatency,
			ExecTime:    sys.ExecutionTime(),
			Blocked:     res.Summary.AvgBlocked,
			WakeWait:    res.Summary.AvgWakeWait,
			Energy:      res.Energy,
			Components:  res.Detail.Energy,
			StaticSaved: res.StaticSaved,
			AvgStaticW:  res.AvgStaticW,
			Packets:     res.Summary.Ejected,
			Drained:     res.Drained,
		}
		if probe != nil {
			metrics[i].PunchWakeups = probe.PunchWakes.Wakeups
			metrics[i].ConvWakeups = probe.ConvWakes.Wakeups
			metrics[i].HiddenFrac = probe.HiddenFraction()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]BenchResult, nb)
	for bi, bench := range o.Benchmarks {
		br := BenchResult{Bench: bench, PerScheme: map[config.Scheme]SchemeMetrics{}}
		for si, s := range FullSystemSchemes {
			br.PerScheme[s] = metrics[bi*ns+si]
		}
		out[bi] = br
	}
	return out, nil
}

// avgOver applies f to every benchmark/scheme and returns per-scheme
// arithmetic means.
func avgOver(results []BenchResult, f func(SchemeMetrics) float64) map[config.Scheme]float64 {
	avg := map[config.Scheme]float64{}
	if len(results) == 0 {
		return avg
	}
	for _, s := range config.Schemes {
		sum := 0.0
		for _, br := range results {
			sum += f(br.PerScheme[s])
		}
		avg[s] = sum / float64(len(results))
	}
	return avg
}

// FormatFig7 renders average packet latency per benchmark (cycles), the
// paper's Figure 7.
func FormatFig7(results []BenchResult) string {
	t := &table{header: append([]string{"benchmark"}, schemeLabels()...)}
	for _, br := range results {
		row := []string{br.Bench}
		for _, s := range config.Schemes {
			row = append(row, fmtF(br.PerScheme[s].AvgLatency))
		}
		t.add(row...)
	}
	avg := avgOver(results, func(m SchemeMetrics) float64 { return m.AvgLatency })
	row := []string{"AVG"}
	for _, s := range config.Schemes {
		row = append(row, fmtF(avg[s]))
	}
	t.add(row...)

	var b strings.Builder
	b.WriteString("Figure 7: average packet latency (cycles)\n")
	b.WriteString(t.String())
	base := avg[config.NoPG]
	if base > 0 {
		fmt.Fprintf(&b, "latency increase vs No-PG: ConvOpt=%+.1f%% Signal=%+.1f%% PunchPG=%+.1f%% (paper: +69.1%%, +12.6%%, +7.9%%)\n",
			(avg[config.ConvOptPG]/base-1)*100,
			(avg[config.PowerPunchSignal]/base-1)*100,
			(avg[config.PowerPunchPG]/base-1)*100)
	}
	return b.String()
}

// FormatFig8 renders execution time normalized to No-PG, the paper's
// Figure 8.
func FormatFig8(results []BenchResult) string {
	t := &table{header: append([]string{"benchmark"}, schemeLabels()...)}
	sums := map[config.Scheme]float64{}
	for _, br := range results {
		row := []string{br.Bench}
		base := float64(br.PerScheme[config.NoPG].ExecTime)
		for _, s := range config.Schemes {
			norm := float64(br.PerScheme[s].ExecTime) / base
			sums[s] += norm
			row = append(row, fmt.Sprintf("%.4f", norm))
		}
		t.add(row...)
	}
	row := []string{"AVG"}
	for _, s := range config.Schemes {
		row = append(row, fmt.Sprintf("%.4f", sums[s]/float64(len(results))))
	}
	t.add(row...)

	var b strings.Builder
	b.WriteString("Figure 8: execution time (normalized to No-PG)\n")
	b.WriteString(t.String())
	n := float64(len(results))
	fmt.Fprintf(&b, "execution-time increase vs No-PG: ConvOpt=%+.2f%% Signal=%+.2f%% PunchPG=%+.2f%% (paper: Signal +2.3%%, PunchPG +0.4%%)\n",
		(sums[config.ConvOptPG]/n-1)*100,
		(sums[config.PowerPunchSignal]/n-1)*100,
		(sums[config.PowerPunchPG]/n-1)*100)
	return b.String()
}

// FormatFig9 renders powered-off routers encountered per packet, the
// paper's Figure 9 (PG schemes only; No-PG is zero by construction).
func FormatFig9(results []BenchResult) string {
	schemes := []config.Scheme{config.ConvOptPG, config.PowerPunchSignal, config.PowerPunchPG}
	hdr := []string{"benchmark"}
	for _, s := range schemes {
		hdr = append(hdr, s.String())
	}
	t := &table{header: hdr}
	for _, br := range results {
		row := []string{br.Bench}
		for _, s := range schemes {
			row = append(row, fmtF(br.PerScheme[s].Blocked))
		}
		t.add(row...)
	}
	avg := avgOver(results, func(m SchemeMetrics) float64 { return m.Blocked })
	t.add("AVG", fmtF(avg[config.ConvOptPG]), fmtF(avg[config.PowerPunchSignal]), fmtF(avg[config.PowerPunchPG]))

	var b strings.Builder
	b.WriteString("Figure 9: powered-off routers encountered per packet (paper AVG: 4.21, 1.09, 0.96)\n")
	b.WriteString(t.String())
	writeHiddenSplit(&b, results)
	return b.String()
}

// writeHiddenSplit appends the counters-probe wakeup split when the
// runs were observed (FullSystemOptions.Observe / `powerpunch -probes`);
// without a probe the fields are zero and the line is omitted.
func writeHiddenSplit(b *strings.Builder, results []BenchResult) {
	observed := false
	for _, br := range results {
		for _, m := range br.PerScheme {
			if m.PunchWakeups != 0 || m.ConvWakeups != 0 {
				observed = true
			}
		}
	}
	if !observed {
		return
	}
	hidden := avgOver(results, func(m SchemeMetrics) float64 { return m.HiddenFrac })
	fmt.Fprintf(b, "wakeup cycles hidden from traffic (probe): ConvOpt=%s Signal=%s PunchPG=%s\n",
		fmtPct(hidden[config.ConvOptPG]), fmtPct(hidden[config.PowerPunchSignal]), fmtPct(hidden[config.PowerPunchPG]))
}

// FormatFig10 renders wakeup-wait cycles per packet, the paper's
// Figure 10.
func FormatFig10(results []BenchResult) string {
	schemes := []config.Scheme{config.ConvOptPG, config.PowerPunchSignal, config.PowerPunchPG}
	hdr := []string{"benchmark"}
	for _, s := range schemes {
		hdr = append(hdr, s.String())
	}
	t := &table{header: hdr}
	for _, br := range results {
		row := []string{br.Bench}
		for _, s := range schemes {
			row = append(row, fmtF(br.PerScheme[s].WakeWait))
		}
		t.add(row...)
	}
	avg := avgOver(results, func(m SchemeMetrics) float64 { return m.WakeWait })
	t.add("AVG", fmtF(avg[config.ConvOptPG]), fmtF(avg[config.PowerPunchSignal]), fmtF(avg[config.PowerPunchPG]))

	var b strings.Builder
	b.WriteString("Figure 10: cycles per packet waiting for router wakeup\n")
	b.WriteString(t.String())
	if avg[config.PowerPunchSignal] > 0 {
		fmt.Fprintf(&b, "PunchPG improvement over Signal: %.1f%% (paper: 36.2%%)\n",
			(1-avg[config.PowerPunchPG]/avg[config.PowerPunchSignal])*100)
	}
	writeHiddenSplit(&b, results)
	return b.String()
}

// FormatFig11 renders the router energy breakdown normalized to No-PG
// total, the paper's Figure 11.
func FormatFig11(results []BenchResult) string {
	t := &table{header: []string{"benchmark", "scheme", "dynamic", "static", "overhead", "total", "static saved"}}
	for _, br := range results {
		base := br.PerScheme[config.NoPG].Energy.Total()
		for _, s := range config.Schemes {
			m := br.PerScheme[s]
			t.add(br.Bench, s.String(),
				fmtPct(m.Energy.Dynamic/base),
				fmtPct(m.Energy.Static/base),
				fmtPct(m.Energy.Overhead/base),
				fmtPct(m.Energy.Total()/base),
				fmtPct(m.StaticSaved))
		}
	}
	var b strings.Builder
	b.WriteString("Figure 11: router energy breakdown (normalized to No-PG total)\n")
	b.WriteString(t.String())

	// Paper headline numbers: ~83% static savings; total energy savings
	// 50.3% (ConvOpt), 52.9% (Signal), 54.1% (PunchPG).
	totals := map[config.Scheme]float64{}
	saved := avgOver(results, func(m SchemeMetrics) float64 { return m.StaticSaved })
	for _, s := range config.Schemes {
		sum := 0.0
		for _, br := range results {
			sum += br.PerScheme[s].Energy.Total() / br.PerScheme[config.NoPG].Energy.Total()
		}
		totals[s] = sum / float64(len(results))
	}
	fmt.Fprintf(&b, "avg static energy saved: ConvOpt=%s Signal=%s PunchPG=%s (paper: ~83%% each)\n",
		fmtPct(saved[config.ConvOptPG]), fmtPct(saved[config.PowerPunchSignal]), fmtPct(saved[config.PowerPunchPG]))
	fmt.Fprintf(&b, "avg total router energy saved: ConvOpt=%s Signal=%s PunchPG=%s (paper: 50.3%%, 52.9%%, 54.1%%)\n",
		fmtPct(1-totals[config.ConvOptPG]), fmtPct(1-totals[config.PowerPunchSignal]), fmtPct(1-totals[config.PowerPunchPG]))
	return b.String()
}
