package serve

import (
	"fmt"

	"powerpunch/internal/cmp"
	"powerpunch/internal/network"
	"powerpunch/internal/obs"
	"powerpunch/internal/parsec"
	"powerpunch/internal/traffic"
)

// buildRun constructs the network and driver for a normalized spec,
// attaching any observer sinks at construction.
func buildRun(spec JobSpec, sinks ...obs.Sink) (*network.Network, network.Driver, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, nil, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(sinks) > 0 {
		net.Observe(sinks...)
	}
	if spec.Bench != "" {
		prof, err := parsec.Profile(spec.Bench, spec.Instr)
		if err != nil {
			return nil, nil, err
		}
		return net, cmp.NewSystem(prof, net, spec.Seed), nil
	}
	pat, err := traffic.ByName(spec.Pattern)
	if err != nil {
		return nil, nil, err
	}
	return net, traffic.NewSynthetic(pat, spec.Rate, spec.Seed), nil
}

// benchBound is the safety bound on a full-system run: the requested
// Cycles with the same 1M-cycle floor the noctrace CLI applies.
func (s JobSpec) benchBound() int64 {
	if s.Cycles < 1_000_000 {
		return 1_000_000
	}
	return s.Cycles
}

// runSpec executes one simulation to completion and assembles its
// record. Synthetic jobs use the standard windowed Run (warmup,
// measurement, drain) and record throughput exactly as the in-process
// loadsweep driver does; bench jobs run the CMP workload until the
// protocol drains and record its execution time.
func runSpec(spec JobSpec) (*JobRecord, error) {
	net, drv, err := buildRun(spec)
	if err != nil {
		return nil, err
	}
	rec := &JobRecord{Key: spec.Key(), Spec: spec}
	if spec.Bench != "" {
		res := net.RunUntil(drv, spec.benchBound())
		if !res.Drained {
			return nil, fmt.Errorf("workload %s did not complete within %d cycles", spec.Bench, spec.benchBound())
		}
		rec.Result = res
		rec.ExecTime = drv.(*cmp.System).ExecutionTime()
		return rec, nil
	}
	res := net.Run(drv)
	rec.Result = res
	rec.Throughput = net.Col.Throughput(net.M.NumNodes(), spec.Cycles)
	return rec, nil
}
