package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"powerpunch/internal/network"
)

// profileHz is the CPU sampling rate the traced run asks for. Linux
// fires the per-thread profiling timers on scheduler ticks, so a kernel
// with HZ below it delivers fewer samples; each still weighs one period.
const profileHz = 1000

// layers is every layer a CPU sample can be charged to, in report order.
var layers = []string{
	"router.step", "core.punch", "pg.step", "network.mask", "network.sched",
	"network.deliver", "ni.signals", "ni.inject", "power.account",
	"cmp.tick", "traffic.tick", "obs", "runtime.gc", "network.par", "network.tick",
	"setup", "trace", "other",
}

const pkg = "powerpunch/internal/"

// phaseEntries are the calls that enter each phase of a cycle, and the
// drivers' Tick. A sample goes to the outermost one on its stack, so
// parked-node catch-up under maskBlocked stays network.mask.
var phaseEntries = map[string]string{
	pkg + "router.(*Router).Step":          "router.step",
	pkg + "router.(*Router).EmitPunches":   "core.punch",
	pkg + "core.(*Fabric).Step":            "core.punch",
	pkg + "core.(*Fabric).NeedsStep":       "core.punch",
	pkg + "network.(*Network).maskBlocked": "network.mask",
	pkg + "network.(*Network).deliverNode": "network.deliver",
	pkg + "ni.(*NI).StepSignals":           "ni.signals",
	pkg + "ni.(*NI).StepInject":            "ni.inject",
	pkg + "power.(*Accountant).TickCycle":  "power.account",
	pkg + "network.routerPowerState":       "power.account",
	pkg + "cmp.(*System).Tick":             "cmp.tick",
	pkg + "traffic.(*Synthetic).Tick":      "traffic.tick",
}

type prefixRule struct{ prefix, layer string }

var phasePrefixes = []prefixRule{
	{pkg + "network.(*Network).stepControllers", "pg.step"},
	{pkg + "power.(*Accountant).TickStatic", "power.account"},
	{pkg + "network.(*scheduler).", "network.sched"},
}

// fallbackPrefixes charge samples outside every phase, in priority
// order: set-up calls, the parallel engine's own code, the rest of the
// drivers, the benchmark's per-cycle timing, and the tick's own code
// between its phases.
var fallbackPrefixes = []prefixRule{
	{pkg + "network.New", "setup"},
	{pkg + "network.(*Network).Close", "setup"},
	{pkg + "network.(*Network).Observe", "setup"},
	{pkg + "cmp.NewSystem", "setup"},
	{pkg + "traffic.NewSynthetic", "setup"},
	{pkg + "parsec.", "setup"},
	{pkg + "network.(*parEngine).", "network.par"},
	{pkg + "network.(*parWorker).", "network.par"},
	// Only the parallel engine's spin-wait yields; the scheduler runs
	// the yield on its own stack, without the caller's frames.
	{"runtime.gosched", "network.par"},
	{pkg + "cmp.", "cmp.tick"},
	{pkg + "traffic.", "traffic.tick"},
	{"main.(*timedDriver).", "trace"},
	{"main.(*tracer).", "trace"},
	{pkg + "network.(*Network).Step", "network.tick"},
	{pkg + "network.(*Network).stepActive", "network.tick"},
	{pkg + "network.(*Network).stepFull", "network.tick"},
	{pkg + "network.(*Network).Run", "network.tick"},
}

func matchPrefix(rules []prefixRule, frame string) string {
	for _, r := range rules {
		if strings.HasPrefix(frame, r.prefix) {
			return r.layer
		}
	}
	return ""
}

// layerOf charges one sample's stack, innermost frame first, to a layer:
// any obs frame, else any runtime.gc* frame, else the outermost phase
// entry, else the first fallback rule any frame matches, else other.
func layerOf(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, pkg+"obs.") {
			return "obs"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gc") {
			return "runtime.gc"
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if l, ok := phaseEntries[stack[i]]; ok {
			return l
		}
		if l := matchPrefix(phasePrefixes, stack[i]); l != "" {
			return l
		}
	}
	for _, r := range fallbackPrefixes {
		for _, f := range stack {
			if strings.HasPrefix(f, r.prefix) {
				return r.layer
			}
		}
	}
	return "other"
}

// A sample is one stack of `go tool pprof -traces` output with its CPU time.
type sample struct {
	stack []string // innermost frame first
	ns    float64
}

// pprofUnits are the time units pprof scales sample values to.
var pprofUnits = []struct {
	suffix string
	ns     float64
}{
	{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
}

func parseValue(s string) (float64, bool) {
	for _, u := range pprofUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.ns, err == nil
		}
	}
	return 0, false
}

// parseTraces reads `go tool pprof -traces` text. Each sample is a block
// between separator lines: optional label lines, then the frames, the
// first of which carries the sample's value.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	inBody, cur := false, -1
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBody, cur = true, -1
			continue
		}
		frame := strings.TrimSpace(line)
		if !inBody || frame == "" {
			continue
		}
		if cur < 0 {
			fields := strings.Fields(frame)
			ns, ok := parseValue(fields[0])
			if !ok || len(fields) < 2 {
				continue // a label line
			}
			out = append(out, sample{ns: ns})
			cur = len(out) - 1
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		out[cur].stack = append(out[cur].stack, strings.TrimSuffix(frame, " (inline)"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in pprof -traces output")
	}
	return out, nil
}

// attribute sums sample time by layer.
func attribute(samples []sample) (byLayer map[string]float64, total float64) {
	byLayer = map[string]float64{}
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return byLayer, total
}

// traced runs the workload once untraced for its outputs and job list,
// then replays every simulation sequentially on this goroutine under a
// CPU profile, in as many passes as it takes to spend minCPU, and
// attributes the profile to layers. Every replayed record must equal the
// untraced one.
func traced(w workload, seed int64, outDir string, minCPU time.Duration) (*outcome, error) {
	c0, t0 := cpuTime(), time.Now()
	sims, err := w.Run(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	fails, refChecked := w.check(seed, sims, nil)
	failures := reasons(fails)
	attempted := len(sims)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, w.Name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	// StartCPUProfile keeps a rate set before it (and says so on stderr).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	root := tr.begin("replay", "", -1)
	c1 := cpuTime()
	var replica []sim
	var results []network.RunResult
	var nodeCycles float64
	passes := 0
	for passes == 0 || cpuTime()-c1 < minCPU {
		for _, s := range sims {
			rec, res, err := runJob(s.Job, tr, root)
			if err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
			r := sim{Job: s.Job, Record: rec}
			attempted++
			if r.key() != s.key() {
				failures = append(failures, s.Job.ID+": replay differs from the untraced run")
			}
			if passes == 0 {
				replica = append(replica, r)
				results = append(results, res)
			}
			nodeCycles += float64(res.Cycles) * routers(s.Job.Cfg)
		}
		passes++
	}
	replayCPU := cpuTime() - c1
	serialSteps, serialTicks := len(tr.steps), len(tr.ticks)
	parSpeedup := 0.0
	if w.ParLeg {
		j := sims[0].Job
		j.Cfg.Workers = 2
		j.ID += " workers=2"
		rec, res, err := runJob(j, tr, root)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		attempted++
		if fmt.Sprintf("%#v", rec) != fmt.Sprintf("%#v", sims[0].Record) {
			failures = append(failures, j.ID+": the two-worker engine differs from the serial one")
		}
		nodeCycles += float64(res.Cycles) * routers(j.Cfg)
		parSpeedup = meanDuration(tr.steps[:serialSteps]) / meanDuration(tr.steps[serialSteps:])
		tr.steps, tr.ticks = tr.steps[:serialSteps], tr.ticks[:serialTicks]
	}
	tr.end(root)
	tracedCPU := cpuTime() - c1
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&mem1)
	if err := f.Close(); err != nil {
		return nil, err
	}

	out, err := exec.Command("go", "tool", "pprof", "-traces", profPath).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profPath, err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	byLayer, totalNs := attribute(samples)
	if err := writeSpans(filepath.Join(outDir, w.Name+".trace.json"), w.Name, seed, tr.spans); err != nil {
		return nil, err
	}

	m := metrics{}
	cpuNs := float64(tracedCPU.Nanoseconds())
	for _, l := range layers {
		share := byLayer[l] / totalNs
		m.set(l+".share", "fraction", share)
		m.set(l+".ns_per_node_cycle", "ns", share*cpuNs/nodeCycles)
	}
	m.set("trace.samples", "count", totalNs/(1e9/profileHz))
	m.set("trace.overhead_frac", "fraction", replayCPU.Seconds()/float64(passes)/cpu.Seconds()-1)
	m.set("runtime.alloc_mb", "MiB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
	m.set("network.par2_speedup", "ratio", parSpeedup)

	steps := seconds(tr.steps)
	m.set("network.step_us_p50", "us", 1e6*quantile(steps, 0.5))
	m.set("network.step_us_p99", "us", 1e6*quantile(steps, 0.99))
	for _, l := range []string{"cmp.tick", "traffic.tick"} {
		v := 0.0
		if l == w.TickLayer {
			v = 1e6 * median(seconds(tr.ticks))
		}
		m.set(l+"_us_p50", "us", v)
	}

	var simSecs, newMs []float64
	for _, sp := range tr.spans {
		d := float64(sp.End - sp.Start)
		switch {
		case sp.Name == "sim":
			simSecs = append(simSecs, d/1e9)
		case sp.Name == "network.New":
			newMs = append(newMs, d/1e6)
		}
	}
	if w.ParLeg {
		simSecs = simSecs[:len(simSecs)-1]
	}
	var simSum float64
	for _, s := range simSecs {
		simSum += s
	}
	m.set("experiments.sims", "count", float64(len(sims)))
	m.set("experiments.sim_s_p50", "s", median(simSecs))
	m.set("experiments.sim_s_max", "s", quantile(simSecs, 1))
	m.set("experiments.core_util", "fraction", simSum/float64(passes)/(float64(runtime.GOMAXPROCS(0))*wall.Seconds()))
	m.set("network.new_ms", "ms", median(newMs))
	countMetrics(m, replica, results)
	var model map[string]float64
	if w.Model != nil {
		model = w.Model(sims)
	}
	for _, name := range modelMetrics {
		m.set(name.name, name.unit, model[name.name])
	}

	return &outcome{
		info: info{Workload: w.Name, Seed: seed, Trace: 1, RefChecked: refChecked,
			SimDigest: digest(sims), ReplicaDigest: digest(replica), Reps: passes},
		attempted: attempted,
		failures:  failures,
		metrics:   m,
	}, nil
}

func meanDuration(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

// modelMetrics are the simulated headline numbers: deterministic per
// seed, so a pure speed-up leaves them unchanged.
var modelMetrics = []struct{ name, unit string }{
	{"punch_exec_penalty_pct", "%"},
	{"punch_static_saved_pct", "%"},
	{"punch_blocked_per_pkt", "routers/pkt"},
	{"punch_latency_gap_pct", "%"},
}

// countMetrics sums the runs' exact counters over one replay pass.
func countMetrics(m metrics, sims []sim, results []network.RunResult) {
	var gatings, gated, nodeCycles, punchWakes, wuWakes, stalls, emissions, relays, packets, queue, measured float64
	for i, r := range results {
		d := r.Detail
		gatings += float64(d.PG.GatingEvents)
		gated += float64(d.PG.GatedCycles)
		punchWakes += float64(d.PG.WakeupsPunch)
		wuWakes += float64(d.PG.WakeupsWU)
		stalls += float64(d.PG.StallCycles)
		emissions += float64(d.Punch.SourceEmissions)
		relays += float64(d.Punch.RelayedTargets)
		packets += float64(r.Summary.Ejected)
		queue += float64(d.Stages.NIQueueCycles)
		measured += float64(d.Stages.Packets)
		nodeCycles += float64(r.Cycles) * routers(sims[i].Job.Cfg)
	}
	m.set("pg.gating_events", "count", gatings)
	m.set("pg.gated_frac", "fraction", gated/nodeCycles)
	m.set("pg.wakeups_punch", "count", punchWakes)
	m.set("pg.wakeups_wu", "count", wuWakes)
	m.set("router.stall_cycles", "cycles", stalls)
	m.set("core.punch_emissions", "count", emissions)
	m.set("core.punch_relays", "count", relays)
	m.set("ni.packets", "count", packets)
	m.set("ni.queue_cycles_per_pkt", "cycles/pkt", queue/measured)
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
