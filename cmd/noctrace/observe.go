// The observability subcommands: stream the cycle-level event trace
// (`trace`), export a power/activity timeline (`timeline`), and run
// the HTTP/JSON campaign server (`serve`). trace and timeline drive
// either a synthetic pattern or — with -bench — a full-system
// CMP/PARSEC workload, with observer sinks attached via
// powerpunch.WithObserver; serve accepts the same workloads as job
// specs over HTTP (internal/serve).
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
	"powerpunch/internal/serve"
)

// simFlags is the workload flag block shared by the observability
// subcommands: scheme, fabric, synthetic pattern, and run length.
type simFlags struct {
	scheme  *string
	pattern *string
	rate    *float64
	cycles  *int64
	warmup  *int64
	seed    *int64
	topo    *string
	width   *int
	height  *int
	bench   *string
	instr   *int64
	preset  *string
}

func addSimFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		scheme:  fs.String("scheme", "PowerPunch-PG", "power-gating scheme: "+strings.Join(powerpunch.SchemeNames(), "|")),
		pattern: fs.String("pattern", "uniform", "synthetic pattern (ignored with -bench)"),
		rate:    fs.Float64("rate", 0.02, "offered load, flits/node/cycle (ignored with -bench)"),
		cycles:  fs.Int64("cycles", 20_000, "measured cycles (with -bench: safety bound on the run)"),
		warmup:  fs.Int64("warmup", 0, "warmup cycles before measurement (ignored with -bench)"),
		seed:    fs.Int64("seed", 1, "seed"),
		topo:    fs.String("topo", "mesh", "fabric topology: mesh|torus|ring"),
		width:   fs.Int("width", 8, "fabric width (nodes per row)"),
		height:  fs.Int("height", 8, "fabric height (rows; must be 1 for -topo ring)"),
		bench:   fs.String("bench", "", "drive a full-system CMP/PARSEC workload instead of synthetic traffic (profile name, see powerpunch -list)"),
		instr:   fs.Int64("instr", 20_000, "instructions per core for -bench"),
		preset:  fs.String("power-preset", "", "power-model calibration: "+strings.Join(powerpunch.PowerPresets(), "|")+" (default: "+powerpunch.DefaultPowerPreset+")"),
	}
}

// rejectIgnored fails on flag combinations the simulation would
// silently ignore: synthetic-traffic flags set alongside -bench, or
// -instr without -bench. Only flags the user actually set (fs.Visit)
// count — defaults are fine.
func (sf *simFlags) rejectIgnored(fs *flag.FlagSet) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *sf.bench != "" {
		for _, name := range []string{"pattern", "rate", "warmup"} {
			if set[name] {
				fatal(fmt.Errorf("-%s is ignored with -bench; drop one of them", name))
			}
		}
	} else if set["instr"] {
		fatal(fmt.Errorf("-instr only applies with -bench"))
	}
}

// schemeByName resolves a scheme through the registry. Unknown names
// are a usage error: the typed message lists the known schemes and the
// process exits with status 2 (matching the preset-flag contract).
func schemeByName(name string) (powerpunch.Scheme, error) {
	s, err := powerpunch.SchemeByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noctrace:", err)
		os.Exit(2)
	}
	return s, err
}

// build assembles the network (observers attached at construction) and
// the driver the flags describe: synthetic traffic by default, a
// full-system CMP workload with -bench.
func (sf *simFlags) build(opts ...powerpunch.Option) (*powerpunch.Network, powerpunch.Driver, error) {
	s, err := schemeByName(*sf.scheme)
	if err != nil {
		return nil, nil, err
	}
	cfg := powerpunch.DefaultConfig()
	cfg.Scheme = s
	cfg.Topology = *sf.topo
	cfg.Width, cfg.Height = *sf.width, *sf.height
	cfg.WarmupCycles = *sf.warmup
	cfg.MeasureCycles = *sf.cycles
	cfg.PowerPreset = *sf.preset
	if *sf.bench != "" {
		// Workload runs measure from cycle 0 until the protocol drains;
		// -cycles only bounds the run (see sf.run).
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40
	}
	net, err := powerpunch.NewNetwork(cfg, opts...)
	if err != nil {
		return nil, nil, err
	}
	if *sf.bench != "" {
		prof, err := powerpunch.PARSECProfile(*sf.bench, *sf.instr)
		if err != nil {
			return nil, nil, err
		}
		return net, powerpunch.NewWorkload(prof, net, *sf.seed), nil
	}
	pat, err := powerpunch.PatternByName(*sf.pattern)
	if err != nil {
		return nil, nil, err
	}
	return net, powerpunch.NewSyntheticTraffic(pat, *sf.rate, *sf.seed), nil
}

// run drives the built driver to completion: a fixed-window Run for
// synthetic traffic, RunUntil (bounded by -cycles, floor 1M) for a
// -bench workload.
func (sf *simFlags) run(net *powerpunch.Network, drv powerpunch.Driver) powerpunch.RunResult {
	if *sf.bench == "" {
		return net.Run(drv)
	}
	bound := *sf.cycles
	if bound < 1_000_000 {
		bound = 1_000_000
	}
	res := net.RunUntil(drv, bound)
	if !res.Drained {
		fatal(fmt.Errorf("workload %s did not complete within %d cycles", *sf.bench, bound))
	}
	return res
}

// openOut resolves an -out flag: "-" means stdout.
func openOut(path string) (io.WriteCloser, error) {
	if path == "-" || path == "" {
		return os.Stdout, nil
	}
	return os.Create(path)
}

// traceCmd streams the full cycle-level event trace of a run as JSON
// lines, optionally filtered to a subset of event kinds.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	sim := addSimFlags(fs)
	out := fs.String("out", "-", "output JSONL file, - for stdout")
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep (empty = all): inject,vc_alloc,switch,link,eject,ni_block,pg_stall,pg_gate,pg_wake,pg_active,punch_emit,punch_local,punch_merge,punch_arrive,punch_hold,wl_miss,wl_fill,wl_dir")
	_ = fs.Parse(args)
	sim.rejectIgnored(fs)

	w, err := openOut(*out)
	if err != nil {
		fatal(err)
	}
	var tw *powerpunch.EventTraceWriter
	if *kinds == "" {
		tw = powerpunch.NewEventTraceWriter(w)
	} else {
		var ks []powerpunch.ProbeKind
		for _, name := range strings.Split(*kinds, ",") {
			k, ok := powerpunch.ProbeKindByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown event kind %q", name))
			}
			ks = append(ks, k)
		}
		tw = powerpunch.NewFilteredEventTraceWriter(w, ks...)
	}

	net, drv, err := sim.build(powerpunch.WithObserver(tw))
	if err != nil {
		fatal(err)
	}
	res := sim.run(net, drv)
	if err := tw.Flush(); err != nil {
		fatal(err)
	}
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "traced %d events over %d cycles (lat=%.2f, %d packets)\n",
		tw.Events(), res.Cycles, res.Summary.AvgLatency, res.Summary.Ejected)
}

// timelineCmd exports the periodic power/activity timeline of a run as
// CSV or JSONL.
func timelineCmd(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	sim := addSimFlags(fs)
	out := fs.String("out", "-", "output file, - for stdout")
	interval := fs.Int64("interval", 100, "sampling window, cycles")
	format := fs.String("format", "csv", "csv|jsonl")
	report := fs.Bool("report", false, "also print the counters report to stderr")
	_ = fs.Parse(args)
	sim.rejectIgnored(fs)

	sampler := powerpunch.NewTimelineSampler(*interval)
	probe := powerpunch.NewCountersProbe()
	net, drv, err := sim.build(powerpunch.WithObserver(sampler, probe))
	if err != nil {
		fatal(err)
	}
	res := sim.run(net, drv)

	w, err := openOut(*out)
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
	if w != os.Stdout {
		if err := w.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%d samples over %d cycles (lat=%.2f, hidden=%.2f)\n",
		len(sampler.Samples()), res.Cycles, res.Summary.AvgLatency, probe.HiddenFraction())
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
