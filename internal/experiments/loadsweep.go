package experiments

import (
	"fmt"
	"strings"

	"powerpunch/internal/config"
	"powerpunch/internal/network"
	"powerpunch/internal/traffic"
)

// LoadPoint is one (pattern, rate, scheme) measurement of Figure 12.
type LoadPoint struct {
	Pattern    string
	Rate       float64 // offered load, flits/node/cycle
	Scheme     config.Scheme
	AvgLatency float64
	Throughput float64 // delivered flits/node/cycle
	StaticW    float64 // average router static power (W), incl. overhead
	Saturated  bool

	// Per-packet stage decomposition of AvgLatency, from
	// RunResult.Detail (cycles/packet; the four stages sum to
	// AvgLatency exactly): source-NI queueing, wakeup cycles exposed at
	// the source NI, wakeup cycles exposed inside the network, and
	// everything else (routing, switching, link traversal, contention).
	NIQueue   float64
	WakeupNI  float64
	WakeupNet float64
	Transit   float64

	// Per-component energy over the measured window (J), from
	// RunResult.Detail.Energy — counter-derived, so engine-invariant.
	Energy network.EnergyBreakdown
}

// LoadSweepOptions parameterizes Figure 12.
type LoadSweepOptions struct {
	Fidelity  Fidelity
	Patterns  []string  // defaults to the paper's three
	Rates     []float64 // defaults per pattern (to saturation)
	Schemes   []config.Scheme
	Seed      int64
	Overrides Overrides
}

func (o *LoadSweepOptions) defaults() {
	if len(o.Patterns) == 0 {
		o.Patterns = []string{"uniform", "bit-complement", "transpose"}
	}
	if len(o.Schemes) == 0 {
		// Figure 12 compares No-PG, ConvOpt-PG, PowerPunch-PG.
		o.Schemes = []config.Scheme{config.NoPG, config.ConvOptPG, config.PowerPunchPG}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// defaultRates returns the paper's x-axis ranges: uniform sweeps to
// ~0.25 flits/node/cycle; the permutation patterns saturate near 0.15.
func defaultRates(pattern string, f Fidelity) []float64 {
	var max float64
	switch pattern {
	case "uniform":
		max = 0.26
	default:
		max = 0.15
	}
	steps := 6
	if f == Full {
		steps = 10
	}
	rates := make([]float64, 0, steps)
	for i := 1; i <= steps; i++ {
		rates = append(rates, 0.005+(max-0.005)*float64(i-1)/float64(steps-1))
	}
	return rates
}

// RunLoadSweep measures latency and static power across the load range
// for each pattern and scheme (Figure 12). The (pattern, rate, scheme)
// points are independent simulations and run in parallel.
func RunLoadSweep(o LoadSweepOptions) ([]LoadPoint, error) {
	o.defaults()
	type job struct {
		pattern string
		rate    float64
		scheme  config.Scheme
	}
	var jobs []job
	for _, pname := range o.Patterns {
		if _, err := traffic.ByName(pname); err != nil {
			return nil, err
		}
		rates := o.Rates
		if len(rates) == 0 {
			rates = defaultRates(pname, o.Fidelity)
		}
		for _, rate := range rates {
			for _, s := range o.Schemes {
				jobs = append(jobs, job{pname, rate, s})
			}
		}
	}
	out := make([]LoadPoint, len(jobs))
	errs := make([]error, len(jobs))
	parallelFor(len(jobs), func(i int) {
		j := jobs[i]
		pat, _ := traffic.ByName(j.pattern)
		cfg := config.Default().WithScheme(j.scheme)
		cfg.WarmupCycles = o.Fidelity.warmupCycles()
		cfg.MeasureCycles = o.Fidelity.measureCycles()
		cfg = o.Overrides.apply(cfg)
		net, err := network.New(cfg)
		if err != nil {
			errs[i] = err
			return
		}
		drv := traffic.NewSynthetic(pat, j.rate, o.Seed)
		res := net.Run(drv)
		thr := net.Col.Throughput(net.M.NumNodes(), cfg.MeasureCycles)
		out[i] = LoadPointFrom(j.pattern, j.rate, j.scheme, res, thr)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LoadPointFrom assembles one sweep measurement from a finished run.
// RunLoadSweep and the campaign server's CSV export both funnel
// through it (including the saturation threshold), which is what
// keeps the HTTP API's result.csv bit-identical to the in-process
// sweep.
func LoadPointFrom(pattern string, rate float64, scheme config.Scheme, res network.RunResult, throughput float64) LoadPoint {
	pt := LoadPoint{
		Pattern:    pattern,
		Rate:       rate,
		Scheme:     scheme,
		AvgLatency: res.Summary.AvgLatency,
		Throughput: throughput,
		StaticW:    res.AvgStaticW,
		Saturated:  !res.Drained || res.Summary.AvgLatency > 150,
	}
	if st := res.Detail.Stages; st.Packets > 0 {
		n := float64(st.Packets)
		pt.NIQueue = float64(st.NIQueueCycles) / n
		pt.WakeupNI = float64(st.WakeupNICycles) / n
		pt.WakeupNet = float64(st.WakeupNetCycles) / n
		pt.Transit = float64(st.TransitCycles) / n
	}
	pt.Energy = res.Detail.Energy
	return pt
}

// FormatFig12 renders the sweep as per-pattern latency and static-power
// tables, the paper's Figure 12.
func FormatFig12(points []LoadPoint, schemes []config.Scheme) string {
	if len(schemes) == 0 {
		schemes = []config.Scheme{config.NoPG, config.ConvOptPG, config.PowerPunchPG}
	}
	byPattern := map[string][]LoadPoint{}
	for _, p := range points {
		byPattern[p.Pattern] = append(byPattern[p.Pattern], p)
	}
	var b strings.Builder
	b.WriteString("Figure 12: packet latency and router static power across the load range\n")
	for _, pat := range keysSorted(byPattern) {
		pts := byPattern[pat]
		hdr := []string{"rate"}
		for _, s := range schemes {
			hdr = append(hdr, "lat:"+s.String())
		}
		for _, s := range schemes {
			hdr = append(hdr, "staticW:"+s.String())
		}
		t := &table{header: hdr}
		byRate := map[float64]map[config.Scheme]LoadPoint{}
		var rates []float64
		for _, p := range pts {
			if byRate[p.Rate] == nil {
				byRate[p.Rate] = map[config.Scheme]LoadPoint{}
				rates = append(rates, p.Rate)
			}
			byRate[p.Rate][p.Scheme] = p
		}
		for _, r := range rates {
			row := []string{fmt.Sprintf("%.3f", r)}
			for _, s := range schemes {
				p := byRate[r][s]
				lat := fmtF(p.AvgLatency)
				if p.Saturated {
					lat += "*"
				}
				row = append(row, lat)
			}
			for _, s := range schemes {
				row = append(row, fmt.Sprintf("%.3f", byRate[r][s].StaticW))
			}
			t.add(row...)
		}
		fmt.Fprintf(&b, "\n[%s] (* = at or near saturation)\n", pat)
		b.WriteString(t.String())
	}
	return b.String()
}
