package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"powerpunch/internal/network"
	"powerpunch/internal/obs"
)

// A span is one timed call the benchmark makes into a layer.
type span struct {
	Name   string `json:"name"`
	Sim    string `json:"sim,omitempty"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// A tracer keeps the traced run's spans and per-cycle timings in memory.
// A nil *tracer records nothing, so the untraced paths share its calls.
type tracer struct {
	t0    time.Time
	spans []span
	steps []time.Duration // per cycle: end of one driver Tick to the start of the next
	ticks []time.Duration // per cycle: the driver's Tick
}

func (t *tracer) begin(name, sim string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Sim: sim, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// timedDriver wraps a driver to time each cycle from outside: the gap
// between consecutive Tick calls is the network's Step.
type timedDriver struct {
	network.Driver
	tr   *tracer
	last time.Time
}

func (d *timedDriver) Tick(n *network.Network, now int64) {
	t0 := time.Now()
	if !d.last.IsZero() {
		d.tr.steps = append(d.tr.steps, t0.Sub(d.last))
	}
	d.Driver.Tick(n, now)
	d.last = time.Now()
	d.tr.ticks = append(d.tr.ticks, d.last.Sub(t0))
}

// build constructs one simulation: the network, its probe and its driver.
func build(j job, tr *tracer, parent int) (*network.Network, network.Driver, *obs.Counters, error) {
	sp := tr.begin("network.New", j.ID, parent)
	net, err := network.New(j.Cfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", j.ID, err)
	}
	var probe *obs.Counters
	if j.Observe {
		sp = tr.begin("network.Observe", j.ID, parent)
		probe = &obs.Counters{}
		net.Observe(probe)
		tr.end(sp)
	}
	sp = tr.begin("driver.New", j.ID, parent)
	drv := j.NewDriver(net)
	tr.end(sp)
	return net, drv, probe, nil
}

// runJob builds and runs one simulation, returning its record.
func runJob(j job, tr *tracer, parent int) (any, network.RunResult, error) {
	sp := tr.begin("sim", j.ID, parent)
	defer tr.end(sp)
	net, drv, probe, err := build(j, tr, sp)
	if err != nil {
		return nil, network.RunResult{}, err
	}
	defer net.Close()
	d := drv
	if tr != nil {
		d = &timedDriver{Driver: drv, tr: tr}
	}
	run := tr.begin("network.Run", j.ID, sp)
	var res network.RunResult
	if j.MaxCycles > 0 {
		res = net.RunUntil(d, j.MaxCycles)
	} else {
		res = net.Run(d)
	}
	tr.end(run)
	return j.Record(net, drv, res, probe), res, nil
}

// setupTimes times n passes of network.New and driver construction over
// the simulations, in seconds per pass. Each construction starts from a
// collected heap and runs with collection off, so that it is charged
// for its own work, not for where the collector's cycles fall, and the
// heap never holds more than one of the networks.
func setupTimes(sims []sim, n int) ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var total time.Duration
		for _, s := range sims {
			runtime.GC()
			t0 := time.Now()
			net, _, _, err := build(s.Job, nil, -1)
			total += time.Since(t0)
			if err != nil {
				return nil, err
			}
			net.Close()
		}
		out = append(out, total.Seconds())
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the q-quantile of xs by linear interpolation; xs is sorted
// in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
