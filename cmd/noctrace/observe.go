// The observability subcommands: stream the cycle-level event trace
// (`trace`), export a power/activity timeline (`timeline`), and run
// the HTTP/JSON campaign server (`serve`). trace and timeline bind
// their flags to a serve.JobSpec and run it through JobSpec.Run, the
// same spec and run path the server's jobs and streams use, so a
// synthetic pattern or — with -bench — a full-system CMP/PARSEC
// workload gives the same events and samples from either face.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerpunch"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/serve"
)

// bindSpec binds the workload flags every spec-driven subcommand
// shares to spec's fields. Each flag defaults to its field's zero
// value, so a flag left unset leaves the field zero and
// serve.JobSpec.Normalize fills the same default, and applies the same
// rules, as the campaign server does for a job.
func bindSpec(fs *flag.FlagSet, spec *serve.JobSpec) {
	fs.StringVar(&spec.Pattern, "pattern", "", "synthetic pattern (default uniform; not with -bench)")
	fs.Float64Var(&spec.Rate, "rate", 0, "offered load, flits/node/cycle (default 0.02; not with -bench)")
	fs.Int64Var(&spec.Seed, "seed", 0, "seed (default 1)")
	fs.StringVar(&spec.Topology, "topo", "", "fabric topology: mesh|torus|ring (default mesh)")
	fs.IntVar(&spec.Width, "width", 0, "fabric width, nodes per row (default 8)")
	fs.IntVar(&spec.Height, "height", 0, "fabric height, rows (default 8; 1 for -topo ring)")
	fs.StringVar(&spec.Bench, "bench", "", "drive a full-system CMP/PARSEC workload instead of synthetic traffic (profile name, see powerpunch -list)")
	fs.Int64Var(&spec.Instr, "instr", 0, "instructions per core for -bench (default 20000)")
	fs.StringVar(&spec.PowerPreset, "power-preset", "", "power-model calibration: "+strings.Join(powerpunch.PowerPresets(), "|")+" (default "+powerpunch.DefaultPowerPreset+")")
}

// bindRunSpec adds the flags trace and timeline take beyond bindSpec's.
func bindRunSpec(fs *flag.FlagSet, spec *serve.JobSpec) {
	bindSpec(fs, spec)
	fs.StringVar(&spec.Scheme, "scheme", "", "power-gating scheme: "+strings.Join(powerpunch.SchemeNames(), "|")+" (default PowerPunch-PG)")
	fs.Int64Var(&spec.Cycles, "cycles", 0, "measured cycles (default 20000; with -bench: safety bound on the run, floor 1000000)")
	fs.Int64Var(&spec.Warmup, "warmup", 0, "warmup cycles before measurement (not with -bench)")
}

// traceFlags is the parsed command line of noctrace trace.
type traceFlags struct {
	spec  serve.JobSpec // normalized
	kinds obs.KindMask
	out   string
}

// parseTrace turns trace's command line into a normalized spec, the
// same spec a POST /api/v1/stream with these fields runs.
func parseTrace(args []string) (traceFlags, error) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var spec serve.JobSpec
	bindRunSpec(fs, &spec)
	out := fs.String("out", "-", "output JSONL file, - for stdout")
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep (empty = all): inject,vc_alloc,switch,link,eject,ni_block,pg_stall,pg_gate,pg_wake,pg_active,punch_emit,punch_local,punch_merge,punch_arrive,punch_hold,wl_miss,wl_fill,wl_dir,bypass")
	_ = fs.Parse(args)
	mask, err := obs.ParseMask(*kinds)
	if err != nil {
		return traceFlags{}, err
	}
	spec, err = spec.Normalize()
	return traceFlags{spec: spec, kinds: mask, out: *out}, err
}

// writeTrace runs the spec with a JSONL event writer on w.
func writeTrace(w io.Writer, spec serve.JobSpec, kinds obs.KindMask) (*obs.TraceWriter, *serve.Outcome, error) {
	tw := obs.NewTraceWriter(w, kinds)
	out, err := spec.Run(func(n *network.Network) { n.Observe(tw) })
	if ferr := tw.Flush(); err == nil {
		err = ferr
	}
	return tw, out, err
}

// openOut resolves an -out flag: "-" means stdout.
func openOut(path string) (io.WriteCloser, error) {
	if path == "-" || path == "" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// closeOut closes an -out file; stdout stays open.
func closeOut(w io.WriteCloser) {
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
}

// traceCmd streams the full cycle-level event trace of a run as JSON
// lines, optionally filtered to a subset of event kinds.
func traceCmd(args []string) {
	tf, err := parseTrace(args)
	if err != nil {
		fatal(err)
	}
	w, err := openOut(tf.out)
	if err != nil {
		fatal(err)
	}
	tw, out, err := writeTrace(w, tf.spec, tf.kinds)
	if err != nil {
		fatal(err)
	}
	closeOut(w)
	res := out.Result
	fmt.Fprintf(os.Stderr, "traced %d events over %d cycles (lat=%.2f, %d packets)\n",
		tw.Events(), res.Cycles, res.Summary.AvgLatency, res.Summary.Ejected)
}

// timelineCmd exports the periodic power/activity timeline of a run as
// CSV or JSONL.
func timelineCmd(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	var spec serve.JobSpec
	bindRunSpec(fs, &spec)
	outPath := fs.String("out", "-", "output file, - for stdout")
	interval := fs.Int64("interval", 100, "sampling window, cycles")
	format := fs.String("format", "csv", "csv|jsonl")
	report := fs.Bool("report", false, "also print the counters report to stderr")
	_ = fs.Parse(args)
	spec, err := spec.Normalize()
	if err != nil {
		fatal(err)
	}

	sampler := obs.NewSampler(*interval)
	probe := &obs.Counters{}
	out, err := spec.Run(func(n *network.Network) { n.Observe(sampler, probe) })
	if err != nil {
		fatal(err)
	}

	w, err := openOut(*outPath)
	if err != nil {
		fatal(err)
	}
	switch *format {
	case "csv":
		err = sampler.WriteCSV(w)
	case "jsonl":
		err = sampler.WriteJSONL(w)
	default:
		err = fmt.Errorf("unknown format %q (want csv or jsonl)", *format)
	}
	if err != nil {
		fatal(err)
	}
	closeOut(w)
	fmt.Fprintf(os.Stderr, "%d samples over %d cycles (lat=%.2f, hidden=%.2f)\n",
		len(sampler.Samples()), out.Result.Cycles, out.Result.Summary.AvgLatency, probe.HiddenFraction())
	if *report {
		if err := probe.WriteReport(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// serveCmd mounts the campaign server (internal/serve): simulation as
// a service over HTTP/JSON with a bounded worker pool, admission
// control (full queue -> 429), a deterministic result cache keyed by
// the canonical (config, seed) hash, parameter-sweep campaigns with
// progress/resume, chunked-JSONL event and timeline streaming,
// per-client rate limits, and graceful shutdown that drains in-flight
// jobs and persists campaign state. Live process metrics stay on
// /debug/vars (the server's counters under the "serve" key) and pprof
// on /debug/pprof.
//
// The pre-campaign serve took the simulation flags directly and
// silently ignored several combinations (-pattern/-rate/-warmup under
// -bench, -instr without -bench). Simulations are described by job
// specs over HTTP now; any leftover simulation flag is rejected by
// the flag parser, and the job/campaign validators reject the same
// combinations with a 400 instead of ignoring them.
func serveCmd(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:6060", "HTTP listen address")
	workers := fs.Int("workers", 4, "simulation worker pool size (also bounds concurrent streams)")
	queue := fs.Int("queue", 64, "job queue depth; submissions beyond it are rejected with 429")
	cacheSize := fs.Int("cache", 1024, "result cache capacity, entries (keyed by the canonical (config, seed) hash)")
	statePath := fs.String("state", "", "campaign state file: persisted on graceful shutdown, campaigns resumable after restart")
	rateLimit := fs.Float64("rate-limit", 0, "per-client requests/second (0 = unlimited)")
	rateBurst := fs.Int("rate-burst", 0, "per-client burst size (requires -rate-limit)")
	_ = fs.Parse(args)

	switch {
	case *workers < 1:
		fatal(fmt.Errorf("serve: -workers must be >= 1"))
	case *queue < 1:
		fatal(fmt.Errorf("serve: -queue must be >= 1"))
	case *cacheSize < 1:
		fatal(fmt.Errorf("serve: -cache must be >= 1"))
	case *rateLimit < 0:
		fatal(fmt.Errorf("serve: -rate-limit must be >= 0"))
	case *rateBurst != 0 && *rateLimit == 0:
		fatal(fmt.Errorf("serve: -rate-burst without -rate-limit would be silently ignored; set -rate-limit > 0"))
	}

	srv, err := serve.New(serve.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheSize:  *cacheSize,
		StatePath:  *statePath,
		RateLimit:  *rateLimit,
		RateBurst:  *rateBurst,
	})
	if err != nil {
		fatal(err)
	}
	expvar.Publish("serve", srv.Metrics())

	root := http.NewServeMux()
	root.Handle("/debug/", http.DefaultServeMux) // expvar + pprof
	root.Handle("/", srv.Handler())
	hs := &http.Server{Addr: *addr, Handler: root}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "campaign server on http://%s/api/v1 (workers=%d queue=%d cache=%d; metrics /debug/vars, pprof /debug/pprof)\n",
		*addr, *workers, *queue, *cacheSize)
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "shutting down: draining in-flight jobs")
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	if err := srv.Shutdown(sctx); err != nil {
		fatal(err)
	}
	if *statePath != "" {
		fmt.Fprintf(os.Stderr, "campaign state persisted to %s\n", *statePath)
	}
}
