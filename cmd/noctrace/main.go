// Command noctrace records and replays NoC traffic traces.
//
// Record a synthetic or full-system workload into a JSON-lines trace:
//
//	noctrace record -out trace.jsonl -pattern uniform -rate 0.02 -cycles 20000
//	noctrace record -out trace.jsonl -bench canneal -instr 30000
//
// Replay a trace under any scheme and report the metrics:
//
//	noctrace replay -in trace.jsonl -scheme PowerPunch-PG
//
// Replaying the same trace under different schemes gives a perfectly
// controlled comparison: every message is identical; only the
// power-gating behaviour differs.
//
// Both commands accept -topo mesh|torus|ring with -width/-height; a
// trace records node IDs, so replay it on the fabric shape it was
// recorded on:
//
//	noctrace record -topo torus -width 4 -height 4 -out torus.jsonl -rate 0.05
//	noctrace replay -topo torus -width 4 -height 4 -in torus.jsonl -scheme PowerPunch-PG
//
// Replay a failure artifact written by the invariant engine
// (Config.Checks) and confirm the violation reproduces at the recorded
// cycle:
//
//	noctrace replay-failure -in /tmp/powerpunch-violation-c123-punch-nonblocking.json
//
// Stream the cycle-level observability event trace of a run as JSON
// lines (optionally filtered by kind), or export the power/activity
// timeline as CSV/JSONL:
//
//	noctrace trace -scheme PowerPunch-PG -rate 0.05 -cycles 5000 -kinds pg_wake,pg_gate,punch_emit
//	noctrace timeline -scheme ConvOpt-PG -rate 0.02 -cycles 50000 -interval 500 -format csv -out timeline.csv
//
// trace and timeline also drive full-system CMP/PARSEC workloads with
// -bench/-instr, including the workload's own protocol events
// (wl_miss, wl_fill, wl_dir) in the stream:
//
//	noctrace trace -bench canneal -instr 20000 -kinds wl_miss,wl_fill,eject
//	noctrace timeline -bench swaptions -scheme PowerPunch-PG -format csv -report
//
// Run the campaign server: simulation as a service over HTTP/JSON,
// with a bounded worker pool, a deterministic result cache keyed by
// the canonical (config, seed) hash, sweep campaigns with
// progress/resume and CSV export, JSONL event/timeline streaming, and
// graceful shutdown that drains in-flight jobs and persists campaign
// state (expvar under /debug/vars, pprof under /debug/pprof):
//
//	noctrace serve -addr localhost:6060 -workers 4 -queue 64 -cache 1024 -state campaigns.json
//	curl -d '{"scheme":"PowerPunch-PG","pattern":"uniform","rate":0.05,"cycles":20000,"seed":1}' \
//	    localhost:6060/api/v1/jobs
//
// Maintain the benchmark baseline (see `make bench` / `make bench-check`):
//
//	go test -run '^$' -bench '^BenchmarkTick' -benchmem . | noctrace bench-json -out BENCH_2026-08-06.json
//	noctrace bench-diff -base BENCH_2026-08-06.json -new /tmp/bench_new.json -max-regress 0.10
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"powerpunch"
	"powerpunch/internal/network"
	"powerpunch/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "replay-failure":
		replayFailure(os.Args[2:])
	case "trace":
		traceCmd(os.Args[2:])
	case "timeline":
		timelineCmd(os.Args[2:])
	case "serve":
		serveCmd(os.Args[2:])
	case "bench-json":
		benchJSON(os.Args[2:])
	case "bench-diff":
		benchDiff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: noctrace <command> [flags] (see -h of each)

trace I/O:      record, replay, replay-failure
observability:  trace (event stream), timeline (power/activity samples)
serving:        serve (HTTP/JSON campaign server: jobs, sweep
                campaigns, result cache, streaming; -addr, -workers,
                -queue, -cache, -state, -rate-limit, -rate-burst)
benchmarking:   bench-json, bench-diff`)
	os.Exit(2)
}

// fatal reports err and exits: status 2 for an unknown scheme name (a
// usage error; the message lists the known schemes), 1 otherwise.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "noctrace:", err)
	var unknown *powerpunch.UnknownSchemeError
	if errors.As(err, &unknown) {
		os.Exit(2)
	}
	os.Exit(1)
}

// recordBound is record's safety bound on a -bench workload.
const recordBound = 10_000_000

// record runs a spec on the No-PG baseline with a trace recorder on
// every NI and writes the recorded trace.
func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	spec := serve.JobSpec{Scheme: powerpunch.NoPG.String()} // record on the neutral baseline
	bindSpec(fs, &spec)
	fs.Int64Var(&spec.Cycles, "cycles", 0, "cycles of synthetic injection (default 20000; not with -bench)")
	out := fs.String("out", "trace.jsonl", "output trace file")
	_ = fs.Parse(args)

	if spec.Bench != "" {
		if spec.Cycles != 0 {
			fatal(fmt.Errorf("-cycles is ignored with -bench; drop one of them"))
		}
		spec.Cycles = recordBound
	}
	spec, err := spec.Normalize()
	if err != nil {
		fatal(err)
	}
	var rec *powerpunch.TraceRecorder
	if _, err := spec.Run(func(n *network.Network) { rec = powerpunch.NewTraceRecorder(n) }); err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr := rec.Trace()
	if _, err := tr.WriteTo(f); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d events to %s\n", len(tr.Events), *out)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.jsonl", "input trace file")
	scheme := fs.String("scheme", "PowerPunch-PG", "power-gating scheme: "+strings.Join(powerpunch.SchemeNames(), "|"))
	maxCycles := fs.Int64("max-cycles", 10_000_000, "safety bound")
	topoName := fs.String("topo", "mesh", "fabric topology the trace was recorded on: mesh|torus|ring")
	width := fs.Int("width", 8, "fabric width")
	height := fs.Int("height", 8, "fabric height (must be 1 for -topo ring)")
	preset := fs.String("power-preset", "", "power-model calibration: "+strings.Join(powerpunch.PowerPresets(), "|")+" (default: "+powerpunch.DefaultPowerPreset+")")
	_ = fs.Parse(args)

	s, err := powerpunch.SchemeByName(*scheme)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := powerpunch.ReadTrafficTrace(f)
	if err != nil {
		fatal(err)
	}
	spec := powerpunch.TopologySpec{Topology: *topoName, Width: *width, Height: *height}
	if err := powerpunch.ValidateTrafficTrace(spec, tr); err != nil {
		fatal(fmt.Errorf("replay: trace does not fit the %s %dx%d fabric — pass the -topo/-width/-height it was recorded on: %w",
			*topoName, *width, *height, err))
	}

	cfg := powerpunch.DefaultConfig()
	cfg.Scheme = s
	cfg.Topology = *topoName
	cfg.Width, cfg.Height = *width, *height
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 1 << 40
	cfg.PowerPreset = *preset
	net, err := powerpunch.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	res := net.RunUntil(powerpunch.NewTraceReplay(tr), *maxCycles)
	if !res.Drained {
		fatal(fmt.Errorf("replay did not drain within %d cycles", *maxCycles))
	}
	fmt.Printf("%-18s events=%d lat=%.2f blocked=%.2f wait=%.2f staticSaved=%.1f%% cycles=%d\n",
		s, len(tr.Events), res.Summary.AvgLatency, res.Summary.AvgBlocked,
		res.Summary.AvgWakeWait, res.StaticSaved*100, res.Cycles)
}

// replayFailure re-runs a violation artifact deterministically and
// verifies it reproduces: same invariant, same cycle. Exit status 0 on
// a faithful reproduction, 1 on divergence.
func replayFailure(args []string) {
	fs := flag.NewFlagSet("replay-failure", flag.ExitOnError)
	in := fs.String("in", "", "violation artifact (JSON, written by the invariant engine)")
	maxCycles := fs.Int64("max-cycles", 0, "replay bound; 0 = recorded cycle plus a short grace window")
	_ = fs.Parse(args)
	if *in == "" {
		fatal(fmt.Errorf("replay-failure: -in is required"))
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	a, err := powerpunch.ReadCheckArtifact(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recorded: %s\n          scheme=%s seed=%d events=%d\n",
		a.Violation.String(), a.Config.Scheme, a.Seed, len(a.Events))

	got, err := powerpunch.ReplayFailure(a, *maxCycles)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed: %s\n", got.Violation.String())
	if got.Invariant != a.Invariant || got.Cycle != a.Cycle {
		fmt.Fprintln(os.Stderr, "noctrace: replay DIVERGED from the recorded violation")
		os.Exit(1)
	}
	fmt.Println("replay reproduced the recorded violation exactly")
}
