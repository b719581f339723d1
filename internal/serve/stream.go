package serve

import (
	"encoding/json"
	"net/http"

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
	spec, err := ss.JobSpec.Normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid stream spec: %v", err)
		return
	}
	mode := ss.Mode
	if mode == "" {
		mode = "events"
	}
	var mask obs.KindMask
	switch mode {
	case "events":
		if mask, err = obs.ParseMask(ss.Kinds); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
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

	// The stream's sink sees each cycle's events; onCycle, attached
	// after it, pushes what the cycle closed down the wire; finish does
	// the final flush and fills the terminator's counts. Write errors
	// are dropped: they mean the client went away, and the run (already
	// counted in sim_cycles) finishes regardless.
	var (
		sink    obs.Sink
		onCycle cycleFunc
		finish  func(*streamEnd)
	)
	if mode == "events" {
		tw := obs.NewTraceWriter(w, mask)
		sink = tw
		onCycle = func(cycle int64) {
			if (cycle+1)%flushEvery == 0 {
				_ = tw.Flush()
				flush()
			}
		}
		finish = func(end *streamEnd) {
			_ = tw.Flush()
			end.Events = tw.Events()
		}
	} else {
		interval := ss.Interval
		if interval == 0 {
			interval = 100
		}
		sampler := obs.NewSampler(interval)
		enc := json.NewEncoder(w)
		emitted := 0
		sink = sampler
		onCycle = func(int64) {
			samples := sampler.Samples()
			if emitted == len(samples) {
				return
			}
			for ; emitted < len(samples); emitted++ {
				_ = enc.Encode(&samples[emitted])
			}
			flush()
		}
		finish = func(end *streamEnd) { end.Samples = emitted }
	}

	out, err := spec.Run(func(n *network.Network) { n.Observe(sink, onCycle) })
	end := streamEnd{StreamEnd: true}
	if out != nil {
		end.Cycles = out.Result.Cycles
		s.mSimCycles.Add(end.Cycles)
		finish(&end)
	}
	// The status line is already written, so a failed run (a bench
	// that hit its bound) is reported in-band instead of the
	// terminator.
	var line any = end
	if err != nil {
		line = errorBody{Error: err.Error()}
	}
	data, _ := json.Marshal(line)
	_, _ = w.Write(append(data, '\n'))
	flush()
}

// cycleFunc adapts a function into an obs.CycleSink that ignores
// events and is called at the end of every cycle.
type cycleFunc func(cycle int64)

func (cycleFunc) Event(*obs.Event) {}

func (f cycleFunc) EndCycle(cycle int64) { f(cycle) }
