package serve

import (
	"fmt"

	"powerpunch/internal/cmp"
	"powerpunch/internal/network"
	"powerpunch/internal/parsec"
	"powerpunch/internal/traffic"
)

// Outcome is one finished run of a spec: the network and driver it ran
// (for reading state after the run) and their result.
type Outcome struct {
	Net    *network.Network
	Driver network.Driver
	Result network.RunResult
}

// Run simulates a normalized spec. It builds the network and driver,
// passes the network to attach (when non-nil) before the first cycle —
// where callers attach observer sinks or a trace recorder — and runs
// it to completion: network.Run (warmup, measurement, drain) for
// synthetic traffic, network.RunUntil bounded by benchBound for a
// bench workload. A bench run that hits its bound returns its partial
// Outcome together with an error. The jobs API, both stream modes, and
// noctrace trace, timeline, and record all run through here.
func (s JobSpec) Run(attach func(*network.Network)) (*Outcome, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(net)
	}
	var drv network.Driver
	if s.Bench != "" {
		prof, err := parsec.Profile(s.Bench, s.Instr)
		if err != nil {
			return nil, err
		}
		drv = cmp.NewSystem(prof, net, s.Seed)
	} else {
		pat, err := traffic.ByName(s.Pattern)
		if err != nil {
			return nil, err
		}
		drv = traffic.NewSynthetic(pat, s.Rate, s.Seed)
	}
	out := &Outcome{Net: net, Driver: drv}
	if s.Bench == "" {
		out.Result = net.Run(drv)
		return out, nil
	}
	out.Result = net.RunUntil(drv, s.benchBound())
	if !out.Result.Drained {
		return out, fmt.Errorf("workload %s did not complete within %d cycles", s.Bench, s.benchBound())
	}
	return out, nil
}

// benchBound is the safety bound on a full-system run: the requested
// Cycles with a 1M-cycle floor.
func (s JobSpec) benchBound() int64 {
	if s.Cycles < 1_000_000 {
		return 1_000_000
	}
	return s.Cycles
}

// runSpec executes one job and assembles its record. Synthetic jobs
// record throughput exactly as the in-process loadsweep driver does;
// bench jobs record the workload's execution time.
func runSpec(spec JobSpec) (*JobRecord, error) {
	out, err := spec.Run(nil)
	if err != nil {
		return nil, err
	}
	rec := &JobRecord{Key: spec.Key(), Spec: spec, Result: out.Result}
	if sys, ok := out.Driver.(*cmp.System); ok {
		rec.ExecTime = sys.ExecutionTime()
	} else {
		rec.Throughput = out.Net.Col.Throughput(out.Net.M.NumNodes(), spec.Cycles)
	}
	return rec, nil
}
