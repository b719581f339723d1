package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"powerpunch/internal/power"
)

// Sample is one row of the time-series a Sampler produces: the state
// of the network over one sampling window. Counter fields are deltas
// over the window; Gated/Waking/Active are instantaneous at the
// window's closing cycle. The JSON field names are a stable export
// format (sampleVersion).
//
// The PowerW fields are the per-component average power draw over the
// window in watts, derived from a PowerMeter when one is attached
// (Network.Observe wires the power accountant in automatically) and
// zero otherwise — including during warmup, when accounting is off.
type Sample struct {
	Cycle    int64 `json:"cycle"`  // closing cycle of the window
	Gated    int   `json:"gated"`  // routers gated at Cycle
	Waking   int   `json:"waking"` // routers mid-wakeup at Cycle
	Active   int   `json:"active"` // routers active at Cycle
	Injected int64 `json:"injected"`
	Ejected  int64 `json:"ejected"`
	Switched int64 `json:"switched"` // crossbar traversals in window
	Punches  int64 `json:"punches"`  // punch emissions in window
	Stalls   int64 `json:"stalls"`   // pg-stall events in window
	Wakeups  int64 `json:"wakeups"`  // wakeups begun in window
	NIBlock  int64 `json:"ni_block"` // blocked source-NI cycles

	// Per-component window-average power (W), in power.Component order.
	PowerW [power.NumComponents]float64 `json:"power_w"`
}

// SampleVersion identifies the Sample JSON schema.
// Version 2 added the per-component power columns.
const SampleVersion = 2

// PowerMeter provides cumulative per-component energy readings; the
// Sampler differences them at window boundaries to produce power
// columns. power.Accountant implements it. Readings must be current at
// EndCycle (all tick engines settle accounting before the bus closes
// the cycle).
type PowerMeter interface {
	Components() power.ComponentBreakdown
	CycleTime() float64
}

// Sampler is a CycleSink producing a periodic timeline of power and
// traffic activity: how many routers are gated/waking, and windowed
// injection/ejection/switching/punch/stall rates. Use NewSampler to
// pick the window length.
type Sampler struct {
	interval int64
	meta     Meta
	state    []uint8 // per-node power state: 0 active, 1 waking, 2 gated
	win      Sample  // accumulating window
	samples  []Sample

	meter PowerMeter               // nil: power columns stay zero
	last  power.ComponentBreakdown // cumulative energies at last window close
}

// NewSampler returns a Sampler emitting one Sample every interval
// cycles (interval < 1 is treated as 1).
func NewSampler(interval int64) *Sampler {
	if interval < 1 {
		interval = 1
	}
	return &Sampler{interval: interval}
}

// SetMeta implements MetaSink.
func (s *Sampler) SetMeta(m Meta) {
	s.meta = m
	if m.Nodes > len(s.state) {
		s.state = append(s.state, make([]uint8, m.Nodes-len(s.state))...)
	}
}

// Interval returns the sampling window length in cycles.
func (s *Sampler) Interval() int64 { return s.interval }

// SetPowerMeter attaches the cumulative energy source the power
// columns are differenced from. Network.Observe calls it with the
// run's power accountant; attach before the first cycle.
func (s *Sampler) SetPowerMeter(m PowerMeter) { s.meter = m }

func (s *Sampler) ensure(n int) {
	if n > len(s.state) {
		s.state = append(s.state, make([]uint8, n-len(s.state))...)
	}
}

// Event implements Sink.
func (s *Sampler) Event(e *Event) {
	switch e.Kind {
	case KindInject:
		s.win.Injected++
	case KindEject:
		s.win.Ejected++
	case KindSwitch:
		s.win.Switched++
	case KindPunchEmit:
		s.win.Punches++
	case KindPGStall:
		s.win.Stalls++
	case KindNIBlock:
		s.win.NIBlock++
	case KindPGGate:
		s.ensure(int(e.Node) + 1)
		s.state[e.Node] = 2
	case KindPGWake:
		s.ensure(int(e.Node) + 1)
		s.state[e.Node] = 1
		s.win.Wakeups++
	case KindPGActive:
		s.ensure(int(e.Node) + 1)
		s.state[e.Node] = 0
	}
}

// EndCycle implements CycleSink: closes the window every interval
// cycles.
func (s *Sampler) EndCycle(cycle int64) {
	if (cycle+1)%s.interval != 0 {
		return
	}
	s.win.Cycle = cycle
	s.win.Gated, s.win.Waking = 0, 0
	for _, st := range s.state {
		switch st {
		case 1:
			s.win.Waking++
		case 2:
			s.win.Gated++
		}
	}
	s.win.Active = len(s.state) - s.win.Gated - s.win.Waking
	if s.meter != nil {
		cur := s.meter.Components()
		secs := float64(s.interval) * s.meter.CycleTime()
		for c := range cur {
			e := cur[c]
			prev := s.last[c]
			s.win.PowerW[c] = (e.Total() - prev.Total()) / secs
		}
		s.last = cur
	}
	s.samples = append(s.samples, s.win)
	s.win = Sample{}
}

// Samples returns the collected timeline (shared backing array; do
// not mutate while the run continues).
func (s *Sampler) Samples() []Sample { return s.samples }

// csvHeader lists the CSV columns: the Sample counter fields in order,
// then one p_<component>_w power column per power.Component.
var csvHeader = func() string {
	h := "cycle,gated,waking,active,injected,ejected,switched,punches,stalls,wakeups,ni_block"
	for _, name := range power.ComponentNames() {
		h += ",p_" + name + "_w"
	}
	return h
}()

// WriteCSV writes the timeline as CSV with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, r := range s.samples {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			r.Cycle, r.Gated, r.Waking, r.Active, r.Injected, r.Ejected,
			r.Switched, r.Punches, r.Stalls, r.Wakeups, r.NIBlock)
		if err != nil {
			return err
		}
		for _, p := range r.PowerW {
			if _, err := fmt.Fprintf(w, ",%.6e", p); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL writes the timeline as JSON lines, one Sample per line.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range s.samples {
		if err := enc.Encode(&s.samples[i]); err != nil {
			return err
		}
	}
	return nil
}
