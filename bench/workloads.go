package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"powerpunch/internal/cmp"
	"powerpunch/internal/config"
	"powerpunch/internal/experiments"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/parsec"
	"powerpunch/internal/traffic"
)

// A job rebuilds one simulation of a workload through the simulator's
// public constructors. The set-up timing and the traced replay use it;
// the untraced run goes through the workload's entry point instead.
type job struct {
	ID        string
	Cfg       config.Config
	Observe   bool  // attach a counters probe, as the golden suite does
	MaxCycles int64 // > 0: RunUntil with this budget; 0: the windowed Run
	// NewDriver builds the simulation's traffic source on net.
	NewDriver func(net *network.Network) network.Driver
	// Record turns a finished run into the value the workload's entry
	// point reports for this simulation, so that a replay can be
	// compared with the untraced run bit for bit.
	Record func(net *network.Network, drv network.Driver, res network.RunResult, probe *obs.Counters) any
}

// A sim is one simulation of a workload as the benchmark checks it.
type sim struct {
	Job        job
	Record     any     // compared and digested through its %#v form
	NodeCycles float64 // simulated cycles × routers
}

// key is the sim's identity and result in a form two runs can compare.
func (s sim) key() string { return s.Job.ID + " " + fmt.Sprintf("%#v", s.Record) }

// digest hashes every sim's key, in order.
func digest(sims []sim) string {
	h := sha256.New()
	for _, s := range sims {
		fmt.Fprintln(h, s.key())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func routers(cfg config.Config) float64 { return float64(cfg.Width * cfg.Height) }

// A workload is one set of inputs the benchmark runs.
type workload struct {
	Name        string
	DefaultSeed int64
	// TickLayer names the layer the workload's driver Tick belongs to.
	TickLayer string
	// Run calls the workload's public entry point once.
	Run func(seed int64) ([]sim, error)
	// Sane returns, by sim index, the failures of checks that hold at
	// any seed.
	Sane func(sims []sim) map[int]string
	// Points returns the values a reference file pins, one per sim;
	// nil when the workload is checked another way.
	Points func(sims []sim) []refPoint
	// Ref returns, by sim index, the deviations from the committed
	// reference. It applies at DefaultSeed only; nil means the workload
	// has no reference at this size.
	Ref func(sims []sim) map[int]string
	// Model returns the workload's simulated headline numbers; nil when
	// it has none.
	Model func(sims []sim) map[string]float64
	// ParLeg replays the first simulation once more on the two-worker
	// parallel engine, to time it against the serial one.
	ParLeg bool
}

// check returns, by sim index, why each failing simulation failed:
// the seed-independent checks, the reference bands at the default seed,
// and equality with the first repetition (nil first skips the last).
// refChecked reports whether the reference bands applied.
func (w workload) check(seed int64, sims, first []sim) (fails map[int]string, refChecked bool) {
	fails = map[int]string{}
	add := func(m map[int]string) {
		for i, why := range m {
			if _, ok := fails[i]; !ok {
				fails[i] = why
			}
		}
	}
	if w.Sane != nil {
		add(w.Sane(sims))
	}
	if w.Ref != nil && seed == w.DefaultSeed {
		refChecked = true
		add(w.Ref(sims))
	}
	if first != nil {
		for i, s := range sims {
			if i >= len(first) || s.key() != first[i].key() {
				add(map[int]string{i: s.Job.ID + ": differs from repetition 1"})
			}
		}
	}
	return fails, refChecked
}

// workloads is the benchmark's fixed workload set at full size.
func workloads() []workload {
	return []workload{
		goldenWorkload(0),
		fig12Workload(nil, nil),
		mesh64Workload(64, 1000, 1500),
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- golden: the paper-§6 full-system suite ----

// goldenRecord is one (benchmark, scheme) cell of experiments.RunGolden.
type goldenRecord struct {
	Bench   string
	Scheme  config.Scheme
	Metrics experiments.SchemeMetrics
}

// goldenWorkload runs experiments.RunGolden on the committed recipe
// with the seed replaced. instrPerCore > 0 shrinks the per-core budget;
// such a run has no reference.
func goldenWorkload(instrPerCore int64) workload {
	w := workload{
		Name:        "golden",
		DefaultSeed: 12, // the committed recipe's seed
		TickLayer:   "cmp.tick",
		Model:       goldenModel,
	}
	w.Run = func(seed int64) ([]sim, error) {
		g, err := experiments.LoadGolden()
		if err != nil {
			return nil, err
		}
		seed = goldenSeed(seed)
		g.Seed = seed
		if instrPerCore > 0 {
			g.InstrPerCore = instrPerCore
		}
		results, err := experiments.RunGolden(g)
		if err != nil {
			return nil, err
		}
		var sims []sim
		for _, br := range results {
			for _, s := range experiments.FullSystemSchemes {
				m := br.PerScheme[s]
				j := goldenJob(br.Bench, s, seed, g.InstrPerCore)
				// The suite reports execution time, not the few drain
				// cycles after it, so that is the cycle count here.
				sims = append(sims, sim{Job: j, Record: goldenRecord{br.Bench, s, m}, NodeCycles: float64(m.ExecTime) * routers(j.Cfg)})
			}
		}
		return sims, nil
	}
	w.Sane = func(sims []sim) map[int]string {
		fails := map[int]string{}
		for i, s := range sims {
			if !s.Record.(goldenRecord).Metrics.Drained {
				fails[i] = s.Job.ID + ": run did not drain"
			}
		}
		return fails
	}
	if instrPerCore == 0 {
		w.Ref = goldenRef
	}
	return w
}

// flyOverDeadlocks are the recipe seeds in 1..100 at which one
// FlyOver-PG cell never drains: with the invariant engine on, the
// deadlock watchdog fires (seed 3: canneal, router 44's head flit
// stalled 4,097 cycles toward an active router 52). Every other cell of
// every seed in 1..100 drains.
var flyOverDeadlocks = map[int64]bool{3: true, 40: true, 63: true, 65: true, 67: true, 91: true, 94: true}

// goldenSeed maps a benchmark seed to a recipe seed in 1..100 on which
// every cell drains: a vetted seed maps to itself, any other seed folds
// into 1..100 and steps past the deadlocking ones.
func goldenSeed(n int64) int64 {
	s := ((n-1)%100+100)%100 + 1
	for flyOverDeadlocks[s] {
		s = s%100 + 1
	}
	return s
}

// goldenJob mirrors one cell of experiments.RunFullSystem.
func goldenJob(bench string, s config.Scheme, seed, instrPerCore int64) job {
	cfg := config.Default().WithScheme(s)
	// The full-system configuration: execution time counts from cycle 0.
	cfg.WarmupCycles, cfg.MeasureCycles = 0, 1<<40
	return job{
		ID:        bench + "/" + s.String(),
		Cfg:       cfg,
		Observe:   true,
		MaxCycles: 5_000_000, // RunFullSystem's per-run safety bound
		NewDriver: func(net *network.Network) network.Driver {
			// The name came back from RunGolden, which resolved it.
			return cmp.NewSystem(parsec.MustProfile(bench, instrPerCore), net, seed)
		},
		Record: func(_ *network.Network, drv network.Driver, res network.RunResult, probe *obs.Counters) any {
			sys := drv.(*cmp.System)
			return goldenRecord{Bench: bench, Scheme: s, Metrics: experiments.SchemeMetrics{
				AvgLatency:   res.Summary.AvgLatency,
				ExecTime:     sys.ExecutionTime(),
				Blocked:      res.Summary.AvgBlocked,
				WakeWait:     res.Summary.AvgWakeWait,
				Energy:       res.Energy,
				Components:   res.Detail.Energy,
				StaticSaved:  res.StaticSaved,
				AvgStaticW:   res.AvgStaticW,
				Packets:      res.Summary.Ejected,
				Drained:      res.Drained,
				PunchWakeups: probe.PunchWakes.Wakeups,
				ConvWakeups:  probe.ConvWakes.Wakeups,
				HiddenFrac:   probe.HiddenFraction(),
			}}
		},
	}
}

// goldenResults regroups golden sims into the suite's result shape.
func goldenResults(sims []sim) []experiments.BenchResult {
	var out []experiments.BenchResult
	at := map[string]int{}
	for _, s := range sims {
		r := s.Record.(goldenRecord)
		i, ok := at[r.Bench]
		if !ok {
			i = len(out)
			at[r.Bench] = i
			out = append(out, experiments.BenchResult{Bench: r.Bench, PerScheme: map[config.Scheme]experiments.SchemeMetrics{}})
		}
		out[i].PerScheme[r.Scheme] = r.Metrics
	}
	return out
}

// goldenRef applies the golden suite's own tolerance bands. A deviation
// names its cell; one that names no cell fails them all.
func goldenRef(sims []sim) map[int]string {
	fails := map[int]string{}
	g, err := experiments.LoadGolden()
	if err != nil {
		for i := range sims {
			fails[i] = err.Error()
		}
		return fails
	}
	for _, dev := range g.Compare(goldenResults(sims)) {
		var cells []int
		for i, s := range sims {
			if strings.HasPrefix(dev, s.Job.ID+" ") || strings.HasPrefix(dev, s.Job.ID+":") {
				cells = append(cells, i)
			}
		}
		if cells == nil {
			for i := range sims {
				cells = append(cells, i)
			}
		}
		for _, i := range cells {
			if _, ok := fails[i]; !ok {
				fails[i] = dev
			}
		}
	}
	return fails
}

// goldenModel averages PunchPG against No-PG over the benchmarks.
func goldenModel(sims []sim) map[string]float64 {
	var exec, saved, blocked, gap float64
	results := goldenResults(sims)
	for _, br := range results {
		pp, base := br.PerScheme[config.PowerPunchPG], br.PerScheme[config.NoPG]
		exec += float64(pp.ExecTime)/float64(base.ExecTime) - 1
		saved += pp.StaticSaved
		blocked += pp.Blocked
		gap += pp.AvgLatency/base.AvgLatency - 1
	}
	n := float64(len(results))
	return map[string]float64{
		"punch_exec_penalty_pct": 100 * exec / n,
		"punch_static_saved_pct": 100 * saved / n,
		"punch_blocked_per_pkt":  blocked / n,
		"punch_latency_gap_pct":  100 * gap / n,
	}
}

// ---- fig12: the open-loop load sweep ----

// The synthetic window of experiments.Quick, which fig12 runs at.
const quickWarmup, quickMeasure = 2_000, 8_000

// fig12Workload runs experiments.RunLoadSweep at Quick fidelity. nil
// patterns and rates keep the sweep's defaults (powerpunch -fig fig12);
// a sweep narrowed by either has no reference.
func fig12Workload(patterns []string, rates []float64) workload {
	w := workload{
		Name:        "fig12",
		DefaultSeed: 1,
		TickLayer:   "traffic.tick",
		Points:      fig12Points,
		Model:       fig12Model,
	}
	w.Run = func(seed int64) ([]sim, error) {
		pts, err := experiments.RunLoadSweep(experiments.LoadSweepOptions{
			Fidelity: experiments.Quick, Patterns: patterns, Rates: rates, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		sims := make([]sim, len(pts))
		for i, p := range pts {
			j, err := sweepJob(p.Pattern, p.Rate, p.Scheme, seed)
			if err != nil {
				return nil, err
			}
			// Drain cycles are not reported by the sweep; the count is
			// the warmup and measurement window every point runs.
			sims[i] = sim{Job: j, Record: p, NodeCycles: float64(quickWarmup+quickMeasure) * routers(j.Cfg)}
		}
		return sims, nil
	}
	if patterns == nil && rates == nil {
		w.Ref = func(sims []sim) map[int]string { return compareRef("fig12", w.Points(sims)) }
	}
	return w
}

// sweepJob mirrors one point of experiments.RunLoadSweep.
func sweepJob(pattern string, rate float64, s config.Scheme, seed int64) (job, error) {
	pat, err := traffic.ByName(pattern)
	if err != nil {
		return job{}, err
	}
	cfg := config.Default().WithScheme(s)
	cfg.WarmupCycles, cfg.MeasureCycles = quickWarmup, quickMeasure
	return job{
		ID:  fmt.Sprintf("%s@%.4f/%s", pattern, rate, s),
		Cfg: cfg,
		NewDriver: func(*network.Network) network.Driver {
			return traffic.NewSynthetic(pat, rate, seed)
		},
		Record: func(net *network.Network, _ network.Driver, res network.RunResult, _ *obs.Counters) any {
			thr := net.Col.Throughput(net.M.NumNodes(), cfg.MeasureCycles)
			return experiments.LoadPointFrom(pattern, rate, s, res, thr)
		},
	}, nil
}

func fig12Points(sims []sim) []refPoint {
	out := make([]refPoint, len(sims))
	for i, s := range sims {
		p := s.Record.(experiments.LoadPoint)
		out[i] = refPoint{ID: s.Job.ID, AvgLatency: p.AvgLatency, Throughput: p.Throughput, StaticW: p.StaticW, Saturated: p.Saturated}
	}
	return out
}

// fig12Model averages PunchPG's latency gap to No-PG over the points
// where neither is saturated.
func fig12Model(sims []sim) map[string]float64 {
	type at struct {
		pattern string
		rate    float64
	}
	base := map[at]experiments.LoadPoint{}
	for _, s := range sims {
		if p := s.Record.(experiments.LoadPoint); p.Scheme == config.NoPG {
			base[at{p.Pattern, p.Rate}] = p
		}
	}
	var gap, n float64
	for _, s := range sims {
		p := s.Record.(experiments.LoadPoint)
		b, ok := base[at{p.Pattern, p.Rate}]
		if p.Scheme != config.PowerPunchPG || !ok || p.Saturated || b.Saturated || b.AvgLatency == 0 {
			continue
		}
		gap += p.AvgLatency/b.AvgLatency - 1
		n++
	}
	return map[string]float64{"punch_latency_gap_pct": 100 * gap / n} // NaN, reported as 0, without such points
}

// ---- mesh64: one long run on a large sparse fabric ----

// meshRecord is the one run of the mesh64 workload.
type meshRecord struct {
	Result     network.RunResult
	Throughput float64
}

// mesh64Workload runs PowerPunch-PG on a side×side mesh at uniform 0.01
// through network.New and Network.Run, on the default serial engine.
// Any size but 64×64 with 1000+1500 cycles has no reference.
func mesh64Workload(side int, warmup, measure int64) workload {
	w := workload{
		Name:        "mesh64",
		DefaultSeed: 1,
		TickLayer:   "traffic.tick",
		Points:      meshPoints,
		ParLeg:      true,
	}
	w.Run = func(seed int64) ([]sim, error) {
		j := meshJob(side, warmup, measure, seed)
		rec, res, err := runJob(j, nil, -1)
		if err != nil {
			return nil, err
		}
		return []sim{{Job: j, Record: rec, NodeCycles: float64(res.Cycles) * routers(j.Cfg)}}, nil
	}
	w.Sane = func(sims []sim) map[int]string {
		fails := map[int]string{}
		for i, s := range sims {
			if !s.Record.(meshRecord).Result.Drained {
				fails[i] = s.Job.ID + ": run did not drain"
			}
		}
		return fails
	}
	if side == 64 && warmup == 1000 && measure == 1500 {
		w.Ref = func(sims []sim) map[int]string { return compareRef("mesh64", w.Points(sims)) }
	}
	return w
}

func meshJob(side int, warmup, measure, seed int64) job {
	cfg := config.Default().WithScheme(config.PowerPunchPG)
	cfg.Width, cfg.Height = side, side
	cfg.WarmupCycles, cfg.MeasureCycles = warmup, measure
	return job{
		ID:  fmt.Sprintf("mesh%dx%d/uniform@0.0100/%s", side, side, cfg.Scheme),
		Cfg: cfg,
		NewDriver: func(*network.Network) network.Driver {
			return traffic.NewSynthetic(traffic.UniformRandom{}, 0.01, seed)
		},
		Record: func(net *network.Network, _ network.Driver, res network.RunResult, _ *obs.Counters) any {
			return meshRecord{Result: res, Throughput: net.Col.Throughput(net.M.NumNodes(), cfg.MeasureCycles)}
		},
	}
}

func meshPoints(sims []sim) []refPoint {
	out := make([]refPoint, len(sims))
	for i, s := range sims {
		r := s.Record.(meshRecord)
		p := experiments.LoadPointFrom("uniform", 0.01, config.PowerPunchPG, r.Result, r.Throughput)
		out[i] = refPoint{ID: s.Job.ID, AvgLatency: p.AvgLatency, Throughput: p.Throughput,
			Packets: r.Result.Summary.Ejected, StaticW: p.StaticW, Saturated: p.Saturated}
	}
	return out
}

// ---- committed references for fig12 and mesh64 ----

// Regenerate with `go test -run TestReference -update` in this directory.
//
//go:embed ref
var refFiles embed.FS

// refPoint is one simulation's entry in a reference file.
type refPoint struct {
	ID         string  `json:"id"`
	AvgLatency float64 `json:"avg_latency"`
	Throughput float64 `json:"throughput"`
	Packets    int64   `json:"packets,omitempty"`
	StaticW    float64 `json:"static_w"`
	Saturated  bool    `json:"saturated"`
}

// refFile is the committed reference of one workload at its default seed.
type refFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Points   []refPoint `json:"points"`
}

// The bands mirror the golden suite's: latency 5 %, throughput and
// packets 2 %, static power 1 %, and the saturation flag exactly.
const refLatency, refThroughput, refPackets, refStaticW = 0.05, 0.02, 0.02, 0.01

func loadRef(name string) (refFile, error) {
	var ref refFile
	b, err := refFiles.ReadFile("ref/" + name + ".json")
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return ref, fmt.Errorf("parsing ref/%s.json: %w", name, err)
	}
	return ref, nil
}

// compareRef checks points against the named reference, by sim index.
func compareRef(name string, points []refPoint) map[int]string {
	fails := map[int]string{}
	ref, err := loadRef(name)
	if err == nil && len(ref.Points) != len(points) {
		err = fmt.Errorf("ref/%s.json has %d points, the run has %d", name, len(ref.Points), len(points))
	}
	if err != nil {
		for i := range points {
			fails[i] = err.Error()
		}
		return fails
	}
	want := map[string]refPoint{}
	for _, p := range ref.Points {
		want[p.ID] = p
	}
	band := func(got, want, frac float64) bool { return math.Abs(got-want) <= math.Abs(want)*frac }
	for i, got := range points {
		w, ok := want[got.ID]
		switch {
		case !ok:
			fails[i] = got.ID + ": not in the reference"
		case !band(got.AvgLatency, w.AvgLatency, refLatency):
			fails[i] = fmt.Sprintf("%s: latency %.4f, reference %.4f", got.ID, got.AvgLatency, w.AvgLatency)
		case !band(got.Throughput, w.Throughput, refThroughput):
			fails[i] = fmt.Sprintf("%s: throughput %.6f, reference %.6f", got.ID, got.Throughput, w.Throughput)
		case !band(float64(got.Packets), float64(w.Packets), refPackets):
			fails[i] = fmt.Sprintf("%s: packets %d, reference %d", got.ID, got.Packets, w.Packets)
		case !band(got.StaticW, w.StaticW, refStaticW):
			fails[i] = fmt.Sprintf("%s: static power %.6f W, reference %.6f W", got.ID, got.StaticW, w.StaticW)
		case got.Saturated != w.Saturated:
			fails[i] = fmt.Sprintf("%s: saturated %v, reference %v", got.ID, got.Saturated, w.Saturated)
		}
	}
	return fails
}
