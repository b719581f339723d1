package traffic

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/topo"
)

// Event is one recorded message submission. Traces let a workload —
// synthetic or full-system — be captured once and replayed bit-exactly
// under different schemes or configurations, the NoC equivalent of a
// gem5 network trace.
type Event struct {
	Now   int64               `json:"t"`
	Src   mesh.NodeID         `json:"src"`
	Dst   mesh.NodeID         `json:"dst"`
	VN    flit.VirtualNetwork `json:"vn"`
	Kind  flit.Kind           `json:"kind"`
	Size  int                 `json:"size"`
	Hint  bool                `json:"hint"`
	Delay int                 `json:"delay"`
}

// Trace is an ordered list of submission events.
type Trace struct {
	Events []Event
}

// Recorder captures every NI submission on a network into a Trace.
type Recorder struct {
	trace Trace
}

// NewRecorder attaches a recorder to every NI of net. Attach before
// running the workload. A previously-installed OnSubmit consumer (the
// invariant engine's event log) keeps firing.
func NewRecorder(net *network.Network) *Recorder {
	rec := &Recorder{}
	for id := mesh.NodeID(0); net.M.Contains(id); id++ {
		src := id
		prev := net.NI(id).OnSubmit
		net.NI(id).OnSubmit = func(p *flit.Packet, hint bool, delay int, now int64) {
			rec.trace.Events = append(rec.trace.Events, Event{
				Now: now, Src: src, Dst: p.Dst, VN: p.VN, Kind: p.Kind,
				Size: p.Size, Hint: hint, Delay: delay,
			})
			if prev != nil {
				prev(p, hint, delay, now)
			}
		}
	}
	return rec
}

// Trace returns the recorded trace, sorted by cycle (stable within a
// cycle, preserving submission order).
func (r *Recorder) Trace() *Trace {
	sort.SliceStable(r.trace.Events, func(i, j int) bool {
		return r.trace.Events[i].Now < r.trace.Events[j].Now
	})
	return &r.trace
}

// WriteTo writes the trace as JSON lines.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		if err := enc.Encode(e); err != nil {
			return n, fmt.Errorf("traffic: encoding trace: %w", err)
		}
	}
	return n, bw.Flush()
}

// ReadTrace parses a JSON-lines trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("traffic: decoding trace: %w", err)
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// Validate checks the trace against a topology: events in cycle order,
// endpoints on the fabric, sane sizes.
func (t *Trace) Validate(m *topo.Topology) error {
	var prev int64
	for i, e := range t.Events {
		if e.Now < prev {
			return fmt.Errorf("traffic: trace event %d out of order (t=%d after %d)", i, e.Now, prev)
		}
		prev = e.Now
		if !m.Contains(e.Src) || !m.Contains(e.Dst) {
			return fmt.Errorf("traffic: trace event %d has endpoints %d->%d outside %v", i, e.Src, e.Dst, m)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("traffic: trace event %d is a self-send", i)
		}
		if e.Size < 1 || e.Size > 64 {
			return fmt.Errorf("traffic: trace event %d has size %d", i, e.Size)
		}
		if e.VN < 0 || e.VN >= flit.NumVirtualNetworks {
			return fmt.Errorf("traffic: trace event %d has VN %d", i, e.VN)
		}
	}
	return nil
}

// Replay is a network.Driver that re-submits a recorded trace.
type Replay struct {
	trace *Trace
	idx   int
}

// NewReplay returns a driver replaying t from cycle 0.
func NewReplay(t *Trace) *Replay { return &Replay{trace: t} }

// Tick implements network.Driver.
func (r *Replay) Tick(n *network.Network, now int64) {
	for r.idx < len(r.trace.Events) && r.trace.Events[r.idx].Now <= now {
		e := r.trace.Events[r.idx]
		r.idx++
		p := n.NewPacket(e.Src, e.Dst, e.VN, e.Kind)
		p.Size = e.Size
		n.NI(e.Src).SubmitDelayed(p, e.Hint, e.Delay, now)
	}
}

// Done implements network.Driver: the replay finishes when every event
// has been submitted.
func (r *Replay) Done() bool { return r.idx >= len(r.trace.Events) }

// Remaining returns the number of unsubmitted events.
func (r *Replay) Remaining() int { return len(r.trace.Events) - r.idx }
