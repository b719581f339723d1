// Benchmark regression harness: bench-json converts `go test -bench`
// output into the committed BENCH_<date>.json baseline format, and
// bench-diff compares a fresh run against a baseline, failing on
// regressions beyond the tolerance. `make bench` and `make bench-check`
// wire the two together.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// BenchEntry is one benchmark in the baseline file. Metrics holds every
// reported unit (ns/op, B/op, allocs/op, cycles/sec, figure headline
// metrics, ...) keyed by its go-test unit string.
type BenchEntry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// BenchBaseline is the BENCH_<date>.json file format. Host is nil in
// baselines written before bench-json recorded it.
type BenchBaseline struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go"`
	Host       *BenchHost   `json:"host,omitempty"`
	Benchmarks []BenchEntry `json:"benchmarks"`
}

// BenchHost is the machine a baseline was measured on, under the JSON
// names of the end-to-end benchmark's host block (bench/main.go).
type BenchHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func (h *BenchHost) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, kernel %s", h.NProc, h.GOMAXPROCS, h.CPUModel, h.Kernel)
}

// hostInfo describes this machine; fields it cannot read are "unknown".
func hostInfo() *BenchHost {
	h := &BenchHost{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Kernel: "unknown"}
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

// compareHosts prints both runs' hosts to w. Rows timed on different
// machines say nothing about the code, so it fails when both runs
// record a host and the hosts differ, unless crossHost; a run without
// a host block is compared with a warning.
func compareHosts(w io.Writer, base, cur *BenchHost, crossHost bool) error {
	fmt.Fprintf(w, "base host: %v\nnew host:  %v\n", base, cur)
	switch {
	case base == nil || cur == nil:
		fmt.Fprintln(w, "WARNING  a run records no host; cannot tell whether both ran on one machine")
	case *base != *cur && crossHost:
		fmt.Fprintln(w, "WARNING  comparing runs from different hosts (-cross-host)")
	case *base != *cur:
		return fmt.Errorf("bench-diff: the runs come from different hosts; rerun the baseline here or pass -cross-host")
	}
	return nil
}

// procSuffix matches the -GOMAXPROCS suffix go test appends to benchmark
// names; it is stripped so baselines compare across machines.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output. Lines look like:
//
//	BenchmarkTick/No-PG/load=0.02-8  38370  22341 ns/op  44761 cycles/sec  0 B/op  0 allocs/op
//
// after the name and iteration count, results come in (value, unit)
// pairs in whatever order the testing package prints them. Repeated
// lines for the same benchmark (`-count=N`) are merged keeping the best
// value per metric — best-of-N filters scheduler and frequency jitter
// out of the regression gate, which compares thresholds, not
// distributions.
func parseBenchOutput(r io.Reader) ([]BenchEntry, error) {
	var out []BenchEntry
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." line without results (e.g. -v chatter)
		}
		e := BenchEntry{
			Name:       procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: bad value %q", fields[0], fields[i])
			}
			e.Metrics[fields[i+1]] = v
		}
		if j, ok := index[e.Name]; ok {
			mergeBest(&out[j], e)
			continue
		}
		index[e.Name] = len(out)
		out = append(out, e)
	}
	return out, sc.Err()
}

// mergeBest folds a repeated run of the same benchmark into dst, keeping
// the best value per metric (max for higher-is-better units, min
// otherwise) and the larger iteration count.
func mergeBest(dst *BenchEntry, e BenchEntry) {
	if e.Iterations > dst.Iterations {
		dst.Iterations = e.Iterations
	}
	for unit, v := range e.Metrics {
		cur, ok := dst.Metrics[unit]
		if !ok {
			dst.Metrics[unit] = v
			continue
		}
		if higherIsBetter[unit] {
			if v > cur {
				dst.Metrics[unit] = v
			}
		} else if v < cur {
			dst.Metrics[unit] = v
		}
	}
}

func benchJSON(args []string) {
	fs := flag.NewFlagSet("bench-json", flag.ExitOnError)
	in := fs.String("in", "", "go test -bench output (default stdin)")
	outPath := fs.String("out", "", "output JSON file (default stdout)")
	date := fs.String("date", time.Now().Format("2006-01-02"), "baseline date stamp")
	_ = fs.Parse(args)

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	entries, err := parseBenchOutput(src)
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("bench-json: no benchmark result lines found in input"))
	}
	b := BenchBaseline{Date: *date, GoVersion: runtime.Version(), Host: hostInfo(), Benchmarks: entries}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *outPath == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(entries), *outPath)
}

// higherIsBetter lists the metric units where a larger value is an
// improvement; everything else (ns/op, B/op, allocs/op, latencies, ...)
// regresses upward.
var higherIsBetter = map[string]bool{
	"cycles/sec": true,
	"MB/s":       true,
}

// lockedUnits are the metrics bench-diff guards. Figure headline metrics
// (latencies per packet etc.) are deterministic model outputs, not
// performance, and are locked by the golden tests instead.
var lockedUnits = []string{"ns/op", "allocs/op", "cycles/sec"}

func readBaseline(path string) *BenchBaseline {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var b BenchBaseline
	if err := json.Unmarshal(buf, &b); err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
	return &b
}

// speedFactors estimates the machine-speed drift between two runs as
// the median ratio of new/base ns/op across shared benchmarks. Shared
// cloud machines routinely drift 10-20% in sustained phases (frequency
// scaling, noisy neighbours); dividing the drift out makes the gate
// compare the *shape* of the performance profile, so a uniform
// slowdown passes while a localized regression — one code path got
// slower relative to the rest, e.g. the active-set tick relative to
// its full-walk reference — still trips the tolerance. Real
// regressions are localized by construction: they cannot move the
// median of many benchmarks spanning independent code paths.
//
// Phases are *temporally* local: a suite pass runs minutes, and the
// slow large-fabric rows execute in a different phase window than the
// sub-millisecond rows that dominate a global median. Since each
// top-level benchmark family (the name's first path segment) runs
// contiguously, drift is therefore estimated per family — the global
// median is the fallback for families with too few shared rows to
// hide a localized regression in.
func speedFactors(base map[string]BenchEntry, cur []BenchEntry) (global float64, byFamily map[string]float64) {
	// A family median is only trustworthy as a drift estimate when a
	// single regressed row cannot be the median: require several rows.
	const minFamilyRows = 6
	var all []float64
	fam := map[string][]float64{}
	for _, e := range cur {
		be, ok := base[e.Name]
		if !ok {
			continue
		}
		bv, nv := be.Metrics["ns/op"], e.Metrics["ns/op"]
		if bv > 0 && nv > 0 {
			all = append(all, nv/bv)
			f := benchFamily(e.Name)
			fam[f] = append(fam[f], nv/bv)
		}
	}
	if len(all) == 0 {
		return 1, nil
	}
	byFamily = map[string]float64{}
	for f, ratios := range fam {
		if len(ratios) >= minFamilyRows {
			sort.Float64s(ratios)
			byFamily[f] = ratios[len(ratios)/2]
		}
	}
	sort.Float64s(all)
	return all[len(all)/2], byFamily
}

// benchFamily returns the benchmark name's first path segment, e.g.
// "TickLarge" for "TickLarge/PowerPunch-PG/8x8/load=0.10".
func benchFamily(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

func benchDiff(args []string) {
	fs := flag.NewFlagSet("bench-diff", flag.ExitOnError)
	basePath := fs.String("base", "", "committed baseline JSON")
	newPath := fs.String("new", "", "fresh run JSON (from bench-json)")
	maxRegress := fs.Float64("max-regress", 0.10, "tolerated fractional regression (after machine-speed normalization)")
	rawTimes := fs.Bool("raw", false, "compare wall-clock times without machine-speed normalization")
	crossHost := fs.Bool("cross-host", false, "compare runs whose recorded hosts differ")
	_ = fs.Parse(args)
	if *basePath == "" || *newPath == "" {
		fatal(fmt.Errorf("bench-diff: -base and -new are required"))
	}

	base, cur := readBaseline(*basePath), readBaseline(*newPath)
	if err := compareHosts(os.Stdout, base.Host, cur.Host, *crossHost); err != nil {
		fatal(err)
	}
	baseByName := map[string]BenchEntry{}
	for _, e := range base.Benchmarks {
		baseByName[e.Name] = e
	}
	speed := 1.0
	var famSpeed map[string]float64
	if !*rawTimes {
		speed, famSpeed = speedFactors(baseByName, cur.Benchmarks)
	}

	regressions := 0
	compared := 0
	for _, e := range cur.Benchmarks {
		be, ok := baseByName[e.Name]
		if !ok {
			fmt.Printf("NEW      %-45s (not in baseline)\n", e.Name)
			continue
		}
		delete(baseByName, e.Name)
		for _, unit := range lockedUnits {
			bv, okB := be.Metrics[unit]
			nv, okN := e.Metrics[unit]
			if !okB || !okN {
				continue
			}
			compared++
			// Expected value under the drift — the row's family
			// estimate when available, else global. Counting units
			// (allocs/op) are exact and never normalized; time units
			// scale with the drift, rates scale inversely.
			rowSpeed := speed
			if s, ok := famSpeed[benchFamily(e.Name)]; ok {
				rowSpeed = s
			}
			exp := bv
			switch {
			case unit == "allocs/op" || unit == "B/op":
			case higherIsBetter[unit]:
				exp = bv / rowSpeed
			default:
				exp = bv * rowSpeed
			}
			var frac float64 // fractional regression vs expectation, positive = worse
			switch {
			case exp == 0 && nv == 0:
				continue
			case exp == 0:
				frac = 1 // e.g. allocs/op went 0 -> nonzero: always a regression
			case higherIsBetter[unit]:
				frac = (exp - nv) / exp
			default:
				frac = (nv - exp) / exp
			}
			if frac > *maxRegress {
				regressions++
				fmt.Printf("REGRESS  %-45s %-10s %12.4g -> %-12.4g (%+.1f%% raw, %+.1f%% vs machine drift)\n",
					e.Name, unit, bv, nv, 100*relChange(bv, nv), 100*frac)
			}
		}
	}
	missing := make([]string, 0, len(baseByName))
	for name := range baseByName {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("MISSING  %-45s (in baseline, not in new run)\n", name)
	}

	fmt.Printf("bench-diff: %d metrics compared against %s (go %s vs %s), tolerance %.0f%%, machine drift %+.1f%% global, %d family estimates\n",
		compared, *basePath, base.GoVersion, cur.GoVersion, *maxRegress*100, (speed-1)*100, len(famSpeed))
	if regressions > 0 || len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: FAIL: %d regression(s), %d missing benchmark(s)\n",
			regressions, len(missing))
		os.Exit(1)
	}
	fmt.Println("bench-diff: OK")
}

func relChange(base, cur float64) float64 {
	if base == 0 {
		return 1
	}
	return (cur - base) / base
}
