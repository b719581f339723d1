// Benchmarks regenerating every table and figure of the paper (one
// benchmark per artifact), plus microbenchmarks of the simulator's hot
// paths. Each figure benchmark runs its experiment at Quick fidelity and
// reports the headline quantities via b.ReportMetric; cmd/powerpunch
// -full produces the paper-quality versions.
//
//	go test -bench=. -benchmem
package powerpunch

import (
	"fmt"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/core"
	"powerpunch/internal/experiments"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/parsec"
	"powerpunch/internal/topo"
	"powerpunch/internal/traffic"
)

// benchBenches is the benchmark subset used by the figure benchmarks: a
// compute-bound and a network-hungry profile bracket the range.
var benchBenches = []string{"swaptions", "canneal"}

func runFullSystem(b *testing.B) []experiments.BenchResult {
	b.Helper()
	res, err := experiments.RunFullSystem(experiments.FullSystemOptions{
		Fidelity:   experiments.Quick,
		Benchmarks: benchBenches,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func avg(res []experiments.BenchResult, s config.Scheme, f func(experiments.SchemeMetrics) float64) float64 {
	sum := 0.0
	for _, br := range res {
		sum += f(br.PerScheme[s])
	}
	return sum / float64(len(res))
}

// BenchmarkTable1Encoding regenerates Table 1: the 22-entry punch-signal
// code book of router 27's X+ channel.
func BenchmarkTable1Encoding(b *testing.B) {
	rf, err := topo.Build("mesh", 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	var codes int
	for i := 0; i < b.N; i++ {
		enc := core.EncodeChannel(rf, 27, mesh.East, 3)
		codes = len(enc.Codes)
	}
	b.ReportMetric(float64(codes), "distinct-sets")
}

// BenchmarkTable2Config regenerates Table 2 (configuration validation
// and rendering).
func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = experiments.FormatTable2()
	}
}

// BenchmarkFig7Latency regenerates Figure 7: average packet latency per
// benchmark under the four schemes.
func BenchmarkFig7Latency(b *testing.B) {
	var res []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		res = runFullSystem(b)
	}
	lat := func(m experiments.SchemeMetrics) float64 { return m.AvgLatency }
	base := avg(res, config.NoPG, lat)
	b.ReportMetric(base, "noPG-cycles/pkt")
	b.ReportMetric(avg(res, config.ConvOptPG, lat), "convopt-cycles/pkt")
	b.ReportMetric(avg(res, config.PowerPunchPG, lat), "punchPG-cycles/pkt")
}

// BenchmarkFig8ExecTime regenerates Figure 8: execution time normalized
// to No-PG.
func BenchmarkFig8ExecTime(b *testing.B) {
	var res []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		res = runFullSystem(b)
	}
	norm := func(s config.Scheme) float64 {
		sum := 0.0
		for _, br := range res {
			sum += float64(br.PerScheme[s].ExecTime) / float64(br.PerScheme[config.NoPG].ExecTime)
		}
		return sum / float64(len(res))
	}
	b.ReportMetric(norm(config.ConvOptPG), "convopt-norm-exec")
	b.ReportMetric(norm(config.PowerPunchSignal), "signal-norm-exec")
	b.ReportMetric(norm(config.PowerPunchPG), "punchPG-norm-exec")
}

// BenchmarkFig9Blocked regenerates Figure 9: powered-off routers
// encountered per packet.
func BenchmarkFig9Blocked(b *testing.B) {
	var res []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		res = runFullSystem(b)
	}
	blocked := func(m experiments.SchemeMetrics) float64 { return m.Blocked }
	b.ReportMetric(avg(res, config.ConvOptPG, blocked), "convopt-blocked/pkt")
	b.ReportMetric(avg(res, config.PowerPunchSignal, blocked), "signal-blocked/pkt")
	b.ReportMetric(avg(res, config.PowerPunchPG, blocked), "punchPG-blocked/pkt")
}

// BenchmarkFig10WaitCycles regenerates Figure 10: cycles per packet
// spent waiting for router wakeup.
func BenchmarkFig10WaitCycles(b *testing.B) {
	var res []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		res = runFullSystem(b)
	}
	wait := func(m experiments.SchemeMetrics) float64 { return m.WakeWait }
	b.ReportMetric(avg(res, config.ConvOptPG, wait), "convopt-wait/pkt")
	b.ReportMetric(avg(res, config.PowerPunchSignal, wait), "signal-wait/pkt")
	b.ReportMetric(avg(res, config.PowerPunchPG, wait), "punchPG-wait/pkt")
}

// BenchmarkFig11Energy regenerates Figure 11: the router energy
// breakdown and static-energy savings.
func BenchmarkFig11Energy(b *testing.B) {
	var res []experiments.BenchResult
	for i := 0; i < b.N; i++ {
		res = runFullSystem(b)
	}
	saved := func(m experiments.SchemeMetrics) float64 { return m.StaticSaved }
	b.ReportMetric(100*avg(res, config.ConvOptPG, saved), "convopt-static-saved-%")
	b.ReportMetric(100*avg(res, config.PowerPunchPG, saved), "punchPG-static-saved-%")
}

// BenchmarkFig12LoadSweep regenerates Figure 12: latency and router
// static power across the load range for the three traffic patterns.
func BenchmarkFig12LoadSweep(b *testing.B) {
	var pts []experiments.LoadPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunLoadSweep(experiments.LoadSweepOptions{
			Fidelity: experiments.Quick,
			Rates:    []float64{0.01, 0.05, 0.10},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the low-load gap that defines the "power-gating curve".
	var noPG, conv, punch float64
	for _, p := range pts {
		if p.Pattern == "uniform" && p.Rate == 0.01 {
			switch p.Scheme {
			case config.NoPG:
				noPG = p.AvgLatency
			case config.ConvOptPG:
				conv = p.AvgLatency
			case config.PowerPunchPG:
				punch = p.AvgLatency
			}
		}
	}
	b.ReportMetric(noPG, "uniform@0.01-noPG")
	b.ReportMetric(conv, "uniform@0.01-convopt")
	b.ReportMetric(punch, "uniform@0.01-punchPG")
}

// BenchmarkFig13Sensitivity regenerates Figure 13: wakeup-latency and
// router-pipeline sensitivity.
func BenchmarkFig13Sensitivity(b *testing.B) {
	var pts []experiments.SensitivityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunSensitivity(experiments.SensitivityOptions{Fidelity: experiments.Quick})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.RouterStages == 3 && p.WakeupLatency == 10 {
			b.ReportMetric(100*(p.Latency[config.PowerPunchPG]/p.Latency[config.NoPG]-1), "worstcase-punch-pen-%")
		}
	}
}

// BenchmarkScalability regenerates the Section 6.6(2) mesh-size study.
func BenchmarkScalability(b *testing.B) {
	var pts []experiments.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunScalability(experiments.SyntheticOptions{Fidelity: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Width == 16 {
			b.ReportMetric(p.SavedCycles, "16x16-cycles-saved")
			b.ReportMetric(100*p.Reduction, "16x16-reduction-%")
		}
	}
}

// BenchmarkAreaModel regenerates the Section 6.6(1) area estimate.
func BenchmarkAreaModel(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rep := core.EstimateArea(config.Default(), core.DefaultAreaModel())
		frac = rep.OverheadFrac
	}
	b.ReportMetric(100*frac, "area-overhead-%")
}

// BenchmarkAblationPunchDesign runs the design-choice ablation
// (hop count, timeout, strict encoding) from DESIGN.md.
func BenchmarkAblationPunchDesign(b *testing.B) {
	var pts []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.RunAblation(experiments.SyntheticOptions{Fidelity: experiments.Quick, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Label == "hops=3 (paper)" {
			b.ReportMetric(p.AvgLatency, "hops3-cycles/pkt")
		}
	}
}

// --- Microbenchmarks of the simulator hot paths ---

// BenchmarkNetworkStepIdle measures the per-cycle cost of a fully idle
// gated 8x8 network (the common case at PARSEC loads).
func BenchmarkNetworkStepIdle(b *testing.B) {
	cfg := config.Default()
	net, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkNetworkStepLoaded measures the per-cycle cost under moderate
// uniform load with Power Punch active.
func BenchmarkNetworkStepLoaded(b *testing.B) {
	cfg := config.Default()
	net, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	drv := traffic.NewSynthetic(traffic.UniformRandom{}, 0.10, 1)
	for i := 0; i < 2000; i++ {
		drv.Tick(net, net.Now())
		net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Tick(net, net.Now())
		net.Step()
	}
}

// tickBench steps a warmed 8x8 network one simulation cycle per
// benchmark op, so ns/op reads directly as ns/cycle. The driver runs
// inside the measured loop exactly as in a real experiment; cycles/sec
// is reported as a locked metric for the regression harness
// (cmd/noctrace bench-diff).
func tickBench(b *testing.B, scheme config.Scheme, load float64, fullTick bool) {
	b.Helper()
	tickBenchOn(b, "mesh", 8, 8, scheme, load, fullTick)
}

// tickBenchOn is tickBench over an arbitrary fabric; the topology
// benchmarks below lock torus and ring rows into the baseline alongside
// the 8x8 mesh.
func tickBenchOn(b *testing.B, topoName string, w, h int, scheme config.Scheme, load float64, fullTick bool) {
	b.Helper()
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.Topology = topoName
	cfg.Width, cfg.Height = w, h
	cfg.FullTick = fullTick
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	// Packet recycling keeps the whole inject+step loop allocation-free
	// at every locked load (the committed baseline pins allocs/op = 0);
	// results are bit-identical either way.
	cfg.RecyclePackets = true
	net, err := network.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	drv := traffic.NewSynthetic(traffic.UniformRandom{}, load, 1)
	for i := 0; i < 3000; i++ {
		drv.Tick(net, net.Now())
		net.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drv.Tick(net, net.Now())
		net.Step()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "cycles/sec")
	}
}

// tickLoads are the locked load points of the benchmark baseline: the
// paper's low-load regime (where power gating pays and the active-set
// scheduler skips most of the mesh), a moderate point, and a high-load
// point where nearly every node stays hot.
var tickLoads = []float64{0.02, 0.10, 0.30}

// BenchmarkTick measures per-cycle simulation cost with the active-set
// scheduler (the default tick) for every scheme and locked load point.
func BenchmarkTick(b *testing.B) {
	for _, s := range config.Schemes {
		for _, load := range tickLoads {
			s, load := s, load
			b.Run(fmt.Sprintf("%s/load=%.2f", s, load), func(b *testing.B) {
				tickBench(b, s, load, false)
			})
		}
	}
}

// BenchmarkTickEnergy is BenchmarkTick's PowerPunch-PG rows with the
// per-component energy accountant enabled for the measured window —
// every emission site pays its float charge plus an integer event
// counter bump. The gap to the matching BenchmarkTick row is the
// whole cost of DSENT-style component accounting; the committed
// baseline pins it small and allocs/op at exactly 0.
func BenchmarkTickEnergy(b *testing.B) {
	for _, load := range tickLoads {
		load := load
		b.Run(fmt.Sprintf("%s/load=%.2f", config.PowerPunchPG, load), func(b *testing.B) {
			cfg := config.Default()
			cfg.Scheme = config.PowerPunchPG
			cfg.WarmupCycles = 0
			cfg.MeasureCycles = 1 << 40
			cfg.RecyclePackets = true
			net, err := network.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			net.SetAccounting(true)
			drv := traffic.NewSynthetic(traffic.UniformRandom{}, load, 1)
			for i := 0; i < 3000; i++ {
				drv.Tick(net, net.Now())
				net.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drv.Tick(net, net.Now())
				net.Step()
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N)/s, "cycles/sec")
			}
		})
	}
}

// BenchmarkTickFullWalk is BenchmarkTick under Config.FullTick — the
// seed full-walk tick kept as the differential reference. The gap to
// BenchmarkTick at low load is the active-set speedup the baseline
// locks in (>= 2x on PowerPunch-PG at loads <= 0.2).
func BenchmarkTickFullWalk(b *testing.B) {
	for _, s := range config.Schemes {
		for _, load := range tickLoads {
			s, load := s, load
			b.Run(fmt.Sprintf("%s/load=%.2f", s, load), func(b *testing.B) {
				tickBench(b, s, load, true)
			})
		}
	}
}

// BenchmarkTickFlyOver locks the bypass scheme's per-cycle cost into
// the baseline: FlyOver-PG at every locked load point on the 8x8 mesh
// (active-set and full-walk — the bypass admission probes only exist
// on these paths) plus the 4x4 torus,
// whose dateline classes the landing-VC allocation must consult. The
// committed rows pin allocs/op at exactly 0, same as every other
// scheme's hot path.
func BenchmarkTickFlyOver(b *testing.B) {
	for _, load := range tickLoads {
		load := load
		b.Run(fmt.Sprintf("%s/load=%.2f", config.FlyOverPG, load), func(b *testing.B) {
			tickBench(b, config.FlyOverPG, load, false)
		})
	}
	for _, load := range tickLoads {
		load := load
		b.Run(fmt.Sprintf("fullwalk/%s/load=%.2f", config.FlyOverPG, load), func(b *testing.B) {
			tickBench(b, config.FlyOverPG, load, true)
		})
	}
	for _, load := range tickLoads {
		load := load
		b.Run(fmt.Sprintf("torus/%s/load=%.2f", config.FlyOverPG, load), func(b *testing.B) {
			tickBenchOn(b, "torus", 4, 4, config.FlyOverPG, load, false)
		})
	}
}

// benchFabrics are the locked non-mesh fabric shapes of the baseline:
// the same shapes the golden differential and checked-soak suites run,
// so a benchmark row exists for every fabric the correctness battery
// covers.
var benchFabrics = []struct {
	topo          string
	width, height int
}{
	{"torus", 4, 4},
	{"ring", 8, 1},
}

// BenchmarkTickTopo measures per-cycle simulation cost on the wrapped
// fabrics (4x4 torus, 8-node ring) under PowerPunch-PG — the scheme
// whose punch fabric and dateline VC classes exercise every
// topology-sensitive path — with the active-set scheduler, at the
// locked load points.
func BenchmarkTickTopo(b *testing.B) {
	for _, fab := range benchFabrics {
		for _, load := range tickLoads {
			fab, load := fab, load
			b.Run(fmt.Sprintf("%s/%s/load=%.2f", fab.topo, config.PowerPunchPG, load), func(b *testing.B) {
				tickBenchOn(b, fab.topo, fab.width, fab.height, config.PowerPunchPG, load, false)
			})
		}
	}
}

// BenchmarkTickTopoFullWalk is BenchmarkTickTopo under Config.FullTick,
// locking the active-set speedup on the wrapped fabrics the same way
// BenchmarkTickFullWalk does for the mesh.
func BenchmarkTickTopoFullWalk(b *testing.B) {
	for _, fab := range benchFabrics {
		for _, load := range tickLoads {
			fab, load := fab, load
			b.Run(fmt.Sprintf("%s/%s/load=%.2f", fab.topo, config.PowerPunchPG, load), func(b *testing.B) {
				tickBenchOn(b, fab.topo, fab.width, fab.height, config.PowerPunchPG, load, true)
			})
		}
	}
}

// BenchmarkTickLarge measures the recycled hot path under PowerPunch-PG
// on the paper's 8x8 mesh and on the scaled 32x32 and 64x64 fabrics.
// Every row enables packet recycling, so a warmed-up node allocates
// nothing, but the warm-up does not reach every node of the 64x64
// fabric: that row reads 1 allocs/op (about 35 B/op over 300 or 600
// measured cycles), the first-use growth of the slices of NIs that see
// their first packets inside the measured window (ejection reassembly
// in ni.ReceiveEject, injection records in StepInject/newOpen/
// finishOpen, the message queues of SubmitDelayed/Generate) and of the
// flit pool. Large-fabric loads sit below uniform-random saturation
// (~0.05 pkt/node/cyc at 32x32, ~0.025 at 64x64 for 5-flit packets) so
// queues stay bounded over the whole measured window; warmup shrinks
// with fabric size to keep bench wall-clock sane.
func BenchmarkTickLarge(b *testing.B) {
	fabrics := []struct {
		w, h, warm int
		loads      []float64
	}{
		{8, 8, 3000, []float64{0.10, 0.30}},
		{32, 32, 2500, []float64{0.02}},
		{64, 64, 3000, []float64{0.01}},
	}
	for _, fab := range fabrics {
		for _, load := range fab.loads {
			fab, load := fab, load
			name := fmt.Sprintf("%s/%dx%d/load=%.2f", config.PowerPunchPG, fab.w, fab.h, load)
			b.Run(name, func(b *testing.B) {
				cfg := config.Default()
				cfg.Scheme = config.PowerPunchPG
				cfg.Width, cfg.Height = fab.w, fab.h
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = 1 << 40
				cfg.RecyclePackets = true
				net, err := network.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				drv := traffic.NewSynthetic(traffic.UniformRandom{}, load, 1)
				for i := 0; i < fab.warm; i++ {
					drv.Tick(net, net.Now())
					net.Step()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					drv.Tick(net, net.Now())
					net.Step()
				}
				b.StopTimer()
				if s := b.Elapsed().Seconds(); s > 0 {
					b.ReportMetric(float64(b.N)/s, "cycles/sec")
				}
			})
		}
	}
}

// BenchmarkPunchFabricStep measures the punch fabric's per-cycle cost
// with many concurrent punches in flight.
func BenchmarkPunchFabricStep(b *testing.B) {
	rf, err := topo.Build("mesh", 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	f := core.NewFabric(rf, 3, false, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := mesh.NodeID(0); n < 64; n += 4 {
			f.EmitSource(n, 63-n)
		}
		f.Step()
	}
}

// BenchmarkTickCMP is the locked steady-state cost of one simulated
// cycle under the full-system CMP workload (cores ticking, coherence
// protocol delivering, all three VNs loaded), per scheme, on the
// paper's 8x8 mesh. The per-core instruction budget is effectively
// infinite so the workload stays in steady state for the whole
// measured window; `make bench-check` gates this row like the
// synthetic tick benchmarks.
func BenchmarkTickCMP(b *testing.B) {
	for _, s := range []config.Scheme{config.NoPG, config.ConvOptPG, config.PowerPunchPG} {
		s := s
		b.Run(fmt.Sprintf("%s/canneal", s), func(b *testing.B) {
			cfg := config.Default()
			cfg.Scheme = s
			cfg.WarmupCycles = 0
			cfg.MeasureCycles = 1 << 40
			cfg.RecyclePackets = true
			net, err := network.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sys := NewWorkload(parsec.MustProfile("canneal", 1<<40), net, 1)
			for i := 0; i < 3000; i++ {
				sys.Tick(net, net.Now())
				net.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Tick(net, net.Now())
				net.Step()
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "cycles/sec")
			}
		})
	}
}

// BenchmarkFullSystemSwaptions measures end-to-end full-system
// simulation throughput (cycles simulated per wall second is the
// inverse of ns/op divided by the cycle count).
func BenchmarkFullSystemSwaptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		cfg.Scheme = config.PowerPunchPG
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
		net, err := network.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys := NewWorkload(parsec.MustProfile("swaptions", 10_000), net, 1)
		res := net.RunUntil(sys, 2_000_000)
		if !res.Drained {
			b.Fatal("did not drain")
		}
		b.ReportMetric(float64(res.Cycles), "sim-cycles")
	}
}
