// Command bench is the repository's end-to-end benchmark. It runs one
// workload through the simulator's public entry points, repeating it
// for a fixed time, checks every simulation's output, and prints its
// metrics as the last line of standard output:
//
//	bash bench/run.sh --workload golden|fig12|mesh64 [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 1 it instead replays the workload's simulations one by
// one under a CPU profile and reports where a simulated cycle's host
// time goes, layer by layer. README.md describes the workloads and
// every metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest repetitions an untraced run makes whatever its
// budget: the repetition check and a median need two.
const minReps = 2

// setupPasses is how many times an untraced run times set-up after each
// repetition; it reports the median over all of them. Interleaved with
// the repetitions, set-up is timed under the same host load they are.
const setupPasses = 3

// minTraceCPU is the CPU time the traced replay spends at least,
// repeating passes over the workload: 2,000 samples even where the
// kernel delivers profiling signals at 250 Hz.
const minTraceCPU = 10 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric; an undefined ratio (no packets, say) reads 0.
func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

// info describes a run; it is the line before the result on stdout.
type info struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Trace         int      `json:"trace"`
	Reps          int      `json:"reps"` // repetitions, or replay passes when traced
	RefChecked    bool     `json:"ref_checked"`
	SimDigest     string   `json:"sim_digest"`
	ReplicaDigest string   `json:"replica_digest,omitempty"`
	Host          host     `json:"host"`
	Failures      []string `json:"failures,omitempty"`
}

type outcome struct {
	info      info
	attempted int
	failures  []string
	metrics   metrics
	spread    map[string][]float64 // untraced: each repetition's value, by metric
}

func main() {
	name := flag.String("workload", "", "workload to run: golden, fig12 or mesh64")
	seed := flag.Int64("seed", 0, "input seed; 0 picks the workload's default")
	secs := flag.Float64("seconds", 30, "how long the untraced run repeats the workload")
	trace := flag.Int("trace", 0, "1 replays the workload under a CPU profile and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for the traced run's profile and spans")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload golden|fig12|mesh64 and -trace 0|1\n")
		flag.Usage()
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = w.DefaultSeed
	}
	var o *outcome
	var err error
	if *trace == 1 {
		o, err = traced(w, *seed, *outDir, minTraceCPU)
	} else {
		o, err = measure(w, *seed, time.Duration(*secs*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	o.info.Host = hostInfo()
	if err := report(os.Stdout, os.Stderr, o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// measure repeats the workload until the budget is spent (at least
// minReps times), checking every repetition and timing set-up after
// each.
func measure(w workload, seed int64, budget time.Duration) (*outcome, error) {
	var walls, cpus, rates, setups []float64
	var first []sim
	o := &outcome{info: info{Workload: w.Name, Seed: seed}, metrics: metrics{}}
	start := time.Now()
	// Start another repetition only if one more median one fits.
	for len(walls) < minReps || time.Since(start).Seconds()+median(walls) <= budget.Seconds() {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		sims, err := w.Run(seed)
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		fails, refChecked := w.check(seed, sims, first)
		o.info.RefChecked = refChecked
		o.failures = append(o.failures, reasons(fails)...)
		o.attempted += len(sims)
		if first == nil {
			first = sims
			o.info.SimDigest = digest(sims)
		}
		var nodeCycles float64
		for _, s := range sims {
			nodeCycles += s.NodeCycles
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		rates = append(rates, nodeCycles/wall)
		s, err := setupTimes(first, setupPasses)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
	}
	o.info.Reps = len(walls)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	o.spread = map[string][]float64{"wall_s": walls, "cpu_s": cpus, "node_cycles_per_s": rates, "setup_s": setups}
	o.metrics.set("wall_s", "s", median(walls))
	o.metrics.set("cpu_s", "s", median(cpus))
	o.metrics.set("node_cycles_per_s", "router-cycles/s", median(rates))
	o.metrics.set("setup_s", "s", median(setups))
	o.metrics.set("peak_rss_mb", "MiB", rss)
	return o, nil
}

// reasons lists failure reasons in sim order.
func reasons(fails map[int]string) []string {
	idx := make([]int, 0, len(fails))
	for i := range fails {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = fails[i]
	}
	return out
}

// report writes a table to human and the info and result lines to out;
// the result is the last line.
func report(out, human io.Writer, o *outcome) error {
	failed := len(o.failures)
	o.info.Failures = o.failures
	if len(o.info.Failures) > 10 {
		o.info.Failures = o.info.Failures[:10]
	}
	fmt.Fprintf(human, "workload %s  seed %d  trace %d  reps %d  sims %d failed %d  ref_checked %v  digest %s\n",
		o.info.Workload, o.info.Seed, o.info.Trace, o.info.Reps, o.attempted, failed, o.info.RefChecked, o.info.SimDigest)
	for _, f := range o.info.Failures {
		fmt.Fprintf(human, "  FAIL %s\n", f)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(human, "  %-36s %14.6g %-16s", n, m.Value, m.Unit)
		if xs := o.spread[n]; len(xs) > 0 {
			fmt.Fprintf(human, " q1 %.6g  q3 %.6g  n %d", quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
		}
		fmt.Fprintln(human)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(o.info); err != nil {
		return err
	}
	return enc.Encode(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{failed == 0, o.attempted, failed, o.metrics})
}

// peakRSS is the process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPUModel: "unknown", Kernel: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
