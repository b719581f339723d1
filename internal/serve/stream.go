package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"powerpunch/internal/network"
	"powerpunch/internal/obs"
)

// StreamSpec parameterizes POST /api/v1/stream: a job spec plus the
// streaming mode. "events" (the default) streams the cycle-level obs
// event trace as JSONL, optionally filtered by kind; "timeline"
// streams periodic power/activity samples. Streams always simulate
// (they are about watching a run, not fetching a result) and do not
// touch the result cache.
type StreamSpec struct {
	JobSpec
	Mode     string `json:"mode,omitempty"`     // "events" (default) | "timeline"
	Kinds    string `json:"kinds,omitempty"`    // comma-separated event kinds (events mode; empty = all)
	Interval int64  `json:"interval,omitempty"` // sampling window, cycles (timeline mode; default 100)
}

// streamEnd is the closing JSONL line of every stream, so clients can
// distinguish a completed stream from a truncated one.
type streamEnd struct {
	StreamEnd bool  `json:"stream_end"`
	Cycles    int64 `json:"cycles"`
	Events    int64 `json:"events,omitempty"`
	Samples   int   `json:"samples,omitempty"`
}

// flushEvery is the stream flush cadence in simulated cycles.
const flushEvery = 1024

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var ss StreamSpec
	if err := decodeStrict(r, &ss); err != nil {
		httpError(w, http.StatusBadRequest, "bad stream spec: %v", err)
		return
	}
	spec, err := ss.JobSpec.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid stream spec: %v", err)
		return
	}
	mode := ss.Mode
	if mode == "" {
		mode = "events"
	}
	mask := obs.MaskAll
	switch mode {
	case "events":
		if ss.Kinds != "" {
			var kinds []obs.Kind
			for _, name := range strings.Split(ss.Kinds, ",") {
				k, ok := obs.KindByName(strings.TrimSpace(name))
				if !ok {
					httpError(w, http.StatusBadRequest, "unknown event kind %q", name)
					return
				}
				kinds = append(kinds, k)
			}
			mask = obs.MaskOf(kinds...)
		}
	case "timeline":
		if ss.Interval < 0 {
			httpError(w, http.StatusBadRequest, "interval must be >= 0")
			return
		}
	default:
		httpError(w, http.StatusBadRequest, "unknown stream mode %q (want events or timeline)", mode)
		return
	}

	// Streams share the pool's concurrency budget via a semaphore so a
	// burst of stream requests cannot oversubscribe the host.
	select {
	case s.streamSem <- struct{}{}:
		defer func() { <-s.streamSem }()
	default:
		httpError(w, http.StatusTooManyRequests, "all %d stream slots busy", s.opts.Workers)
		return
	}
	s.mStreams.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	var cycles int64
	if mode == "events" {
		cycles = s.streamEvents(w, flush, spec, mask)
	} else {
		interval := ss.Interval
		if interval == 0 {
			interval = 100
		}
		cycles = s.streamTimeline(w, flush, spec, interval)
	}
	s.mSimCycles.Add(cycles)
}

// tickAll drives the built run to completion, invoking step after
// every simulated cycle (for incremental emission/flushing). It
// returns the cycle count.
func tickAll(net *network.Network, drv network.Driver, spec JobSpec, step func(now int64)) int64 {
	if spec.Bench != "" {
		bound := spec.benchBound()
		for (!drv.Done() || !net.Quiesced()) && net.Now() < bound {
			drv.Tick(net, net.Now())
			net.Step()
			step(net.Now())
		}
		return net.Now()
	}
	budget := spec.Warmup + spec.Cycles
	for net.Now() < budget {
		drv.Tick(net, net.Now())
		net.Step()
		step(net.Now())
	}
	drainEnd := budget + net.Cfg.DrainCycles
	for !net.Quiesced() && net.Now() < drainEnd {
		net.Step()
		step(net.Now())
	}
	return net.Now()
}

// streamEvents runs the spec with a JSONL trace writer attached,
// flushing down the wire every flushEvery cycles.
func (s *Server) streamEvents(w io.Writer, flush func(), spec JobSpec, mask obs.KindMask) int64 {
	tw := obs.NewTraceWriter(w, mask)
	net, drv, err := buildRun(spec, tw)
	if err != nil {
		// The spec validated, so this is an environment failure; the
		// status line is already written — report in-band.
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		flush()
		return 0
	}
	cycles := tickAll(net, drv, spec, func(now int64) {
		if now%flushEvery == 0 {
			tw.Flush()
			flush()
		}
	})
	tw.Flush()
	data, _ := json.Marshal(streamEnd{StreamEnd: true, Cycles: cycles, Events: tw.Events()})
	_, _ = w.Write(append(data, '\n'))
	flush()
	return cycles
}

// streamTimeline runs the spec with a periodic sampler attached,
// emitting each closed sample window as one JSON line.
func (s *Server) streamTimeline(w io.Writer, flush func(), spec JobSpec, interval int64) int64 {
	sampler := obs.NewSampler(interval)
	net, drv, err := buildRun(spec, sampler)
	if err != nil {
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		flush()
		return 0
	}
	enc := json.NewEncoder(w)
	emitted := 0
	emit := func() {
		samples := sampler.Samples()
		if emitted == len(samples) {
			return
		}
		for ; emitted < len(samples); emitted++ {
			_ = enc.Encode(samples[emitted])
		}
		flush()
	}
	cycles := tickAll(net, drv, spec, func(now int64) {
		if now%interval == 0 {
			emit()
		}
	})
	emit()
	data, _ := json.Marshal(streamEnd{StreamEnd: true, Cycles: cycles, Samples: emitted})
	_, _ = w.Write(append(data, '\n'))
	flush()
	return cycles
}
