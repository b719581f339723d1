// Package obs is the cycle-level observability layer: a tiny event bus
// that the router, power-gating controller, punch fabric, and network
// interfaces publish into, fanned out to pluggable sinks.
//
// The design contract (DESIGN.md §10) is zero overhead when disabled:
// every publisher holds a *Bus that is nil unless an observer was
// attached, and every emission site is guarded by a single nil check.
// The simulator's hot tick path is pinned at 0 allocs/cycle by
// AllocsPerRun tests; the bus preserves that by never allocating on
// Emit — events are value types copied into a bus-resident scratch
// slot and handed to sinks by pointer, valid only for the duration of
// the call.
//
// Sinks that want end-of-cycle batching (timeline samplers, flush
// points) additionally implement CycleSink; the network calls EndCycle
// exactly once per simulated cycle, after all phases of that cycle.
package obs

import (
	"fmt"
	"strings"
)

// Kind discriminates event types on the bus. The numeric values are
// part of the JSONL trace format (see TraceWriter) and must not be
// reordered; add new kinds at the end.
type Kind uint8

const (
	// KindInject: a packet's head flit entered the network at the
	// source NI. Node = source, Dst = destination, Pkt = packet ID,
	// VC = virtual network, A = NI queueing delay in cycles
	// (inject cycle − creation cycle).
	KindInject Kind = iota
	// KindVCAlloc: a head flit won VC allocation at Node for output
	// Dir, acquiring downstream VC.
	KindVCAlloc
	// KindSwitch: a flit won switch allocation and traversed the
	// crossbar at Node toward output Dir (ST stage). A = 1 if tail.
	KindSwitch
	// KindLink: the same flit departed on the link from Node (Src)
	// to the downstream router Dst in direction Dir.
	KindLink
	// KindEject: a packet's tail flit left the network at the
	// destination NI. Node = destination, Src = original source,
	// A = total packet latency in cycles, B = cycles the packet
	// spent waiting on router wakeups.
	KindEject
	// KindNIBlock: a source NI spent this cycle unable to inject
	// because the local router (or, under conventional gating, a
	// gated router on the path) is not ready. Node = source.
	KindNIBlock
	// KindPGStall: a flit at Node was denied switch traversal this
	// cycle because the downstream router Dst is gated or waking.
	// One event per stalled flit per cycle.
	KindPGStall
	// KindPGGate: router Node turned its power gate on (entered
	// Gated). A = cycles spent Active since the last wake.
	KindPGGate
	// KindPGWake: router Node began waking. A = cycles it spent
	// gated, B = 1 if the wake was triggered by a punch signal,
	// 0 for a conventional wakeup/drain trigger. Dir = 1 if the
	// gating period fell short of the break-even time.
	KindPGWake
	// KindPGActive: router Node completed its wakeup and is Active.
	// A = the configured wakeup latency it just paid.
	KindPGActive
	// KindPunchEmit: the NI/core at Node emitted a punch along an
	// escape channel. Dst = the punch target router, A = encoded
	// target set / code index.
	KindPunchEmit
	// KindPunchLocal: the core at Node asserted (or refreshed) the
	// punch wire of its own local router.
	KindPunchLocal
	// KindPunchMerge: a relayed punch at Node merged into a
	// non-empty outbound punch register (paper Table 1 merging).
	// Dst = the merged target.
	KindPunchMerge
	// KindPunchArrive: a punch addressed to Node arrived and was
	// absorbed (it will hold Node's wake wire this cycle).
	KindPunchArrive
	// KindPunchHold: Node's wake wire is held high by punch state
	// this cycle (level signal derived from arrivals/local wires).
	KindPunchHold
	// KindWorkloadMiss: the core at Node issued an L1 miss into the
	// coherence protocol. Dst = home L2 bank/directory, Pkt = protocol
	// transaction id, VC = virtual network of the request, A = 1 for a
	// write (GetX), 0 for a read (GetS). Emitted at driver time, so the
	// stamp carries the previous cycle (the packet enters the NI at the
	// cycle after the stamp), matching driver-time punch events.
	KindWorkloadMiss
	// KindWorkloadFill: the miss identified by Pkt completed at the
	// core at Node (the data response arrived and the MSHR retired).
	// Src = responding node (home bank or memory controller).
	KindWorkloadFill
	// KindWorkloadDir: the directory at Node acted on a request.
	// Pkt = transaction id, Src = original requester, A = action:
	// 0 clean L2 hit (data response), 1 invalidation round (B = sharer
	// count), 2 L2 miss forwarded to a memory controller (Dst = MC).
	KindWorkloadDir
	// KindBypass: router Node granted a flit onto the bypass path
	// around its gated neighbor Src (FlyOver-style schemes): the flit
	// flies over Src and lands directly at router Dst's input. Dir =
	// the travel direction, VC = the landing router's input VC.
	KindBypass
	numKinds
)

// NumKinds is the number of defined event kinds.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	"inject", "vc_alloc", "switch", "link", "eject", "ni_block",
	"pg_stall", "pg_gate", "pg_wake", "pg_active",
	"punch_emit", "punch_local", "punch_merge", "punch_arrive", "punch_hold",
	"wl_miss", "wl_fill", "wl_dir",
	"bypass",
}

// String returns the stable snake_case name used in JSONL traces.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a stable snake_case kind name (as used in JSONL
// traces); ok is false for unknown names.
func KindByName(name string) (k Kind, ok bool) {
	for i := range kindNames {
		if kindNames[i] == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// KindMask selects a subset of kinds for filtering sinks.
type KindMask uint32

// MaskOf builds a mask matching exactly the given kinds.
func MaskOf(kinds ...Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// MaskAll matches every kind.
const MaskAll = KindMask(1<<numKinds - 1)

// Has reports whether k is in the mask.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// ParseMask resolves a comma-separated list of kind names (the syntax
// of `noctrace trace -kinds` and of a stream's "kinds"); an empty list
// selects every kind.
func ParseMask(list string) (KindMask, error) {
	if list == "" {
		return MaskAll, nil
	}
	var m KindMask
	for _, name := range strings.Split(list, ",") {
		k, ok := KindByName(strings.TrimSpace(name))
		if !ok {
			return 0, fmt.Errorf("unknown event kind %q", name)
		}
		m |= 1 << k
	}
	return m, nil
}

// Event is one observation on the bus. It is a flat value type —
// comparable, pointer-free — so sinks may copy and retain it freely.
// Field meaning depends on Kind (see the Kind constants); unused
// fields are zero.
type Event struct {
	Cycle int64 // simulation cycle, stamped by the bus
	Kind  Kind
	Node  int32 // router/NI where the event happened
	Dir   int8  // output direction or kind-specific small flag
	VC    int16 // virtual channel / virtual network, -1 if n/a
	Pkt   uint64
	Src   int32 // kind-specific: packet source, link source
	Dst   int32 // kind-specific: packet dest, downstream router, punch target
	A     int64 // kind-specific payload
	B     int64 // kind-specific payload
}

// Sink consumes events. The *Event passed to Event points at
// bus-owned scratch storage and is valid only for the duration of the
// call; copy the value to retain it. Sinks run synchronously on the
// simulation goroutine and must not block.
type Sink interface {
	Event(e *Event)
}

// CycleSink is implemented by sinks that additionally want a callback
// at the end of every simulated cycle (after all events of that
// cycle).
type CycleSink interface {
	Sink
	EndCycle(cycle int64)
}

// Meta describes the run being observed; the network fills it in when
// the bus is installed so sinks can interpret events (e.g. split
// wakeup stalls into exposed vs hidden using Twakeup).
type Meta struct {
	Nodes    int
	Width    int
	Height   int
	Topology string
	Scheme   string
	Twakeup  int // configured wakeup latency, cycles
	BET      int // break-even time, cycles
	Punch    int // punch reach in hops (0 if the scheme has no punch)
}

// Bus fans events out to attached sinks. A nil *Bus is the disabled
// state: publishers guard every emission with a nil check and the
// whole layer costs one predictable branch per site.
type Bus struct {
	meta       Meta
	now        int64
	sinks      []Sink
	cycleSinks []CycleSink
	ev         Event // scratch slot handed to sinks by pointer
}

// NewBus returns an empty bus for a run described by meta.
func NewBus(meta Meta) *Bus {
	return &Bus{meta: meta}
}

// MetaSink is implemented by sinks that want the run description at
// attach time (e.g. to size per-node state or interpret Twakeup).
type MetaSink interface {
	Sink
	SetMeta(m Meta)
}

// Attach adds a sink. Sinks implementing CycleSink also receive
// EndCycle callbacks; sinks implementing MetaSink receive the run
// description immediately. Attach is not safe concurrently with Emit.
func (b *Bus) Attach(s Sink) {
	if s == nil {
		return
	}
	b.sinks = append(b.sinks, s)
	if cs, ok := s.(CycleSink); ok {
		b.cycleSinks = append(b.cycleSinks, cs)
	}
	if ms, ok := s.(MetaSink); ok {
		ms.SetMeta(b.meta)
	}
}

// SetNow sets the cycle stamped onto subsequently emitted events. The
// network calls this once at the start of each cycle.
func (b *Bus) SetNow(cycle int64) { b.now = cycle }

// Now returns the current stamping cycle.
func (b *Bus) Now() int64 { return b.now }

// Emit delivers e to every sink, stamping the current cycle. e is
// copied into bus-owned storage; the pointer sinks receive must not
// be retained past the call.
func (b *Bus) Emit(e Event) {
	e.Cycle = b.now
	b.ev = e
	for _, s := range b.sinks {
		s.Event(&b.ev)
	}
}

// EndCycle notifies cycle-aware sinks that the current cycle is
// complete. The network calls this exactly once per cycle, after all
// phases.
func (b *Bus) EndCycle() {
	for _, cs := range b.cycleSinks {
		cs.EndCycle(b.now)
	}
}

// Recorder is a Sink that buffers every event in memory, in emission
// order, for later comparison or replay. Mark/Slice split the buffer
// into segments without per-segment sinks. The buffer's capacity is
// retained across Reset, so steady-state recording allocates nothing.
type Recorder struct {
	events []Event
}

// Event implements Sink by appending a copy of e.
func (r *Recorder) Event(e *Event) { r.events = append(r.events, *e) }

// Mark returns the current buffer position (for later Slice calls).
func (r *Recorder) Mark() int { return len(r.events) }

// Slice returns the events recorded in [lo, hi). The slice aliases the
// recorder's buffer and is valid until the next Reset.
func (r *Recorder) Slice(lo, hi int) []Event { return r.events[lo:hi] }

// Reset empties the buffer, keeping its capacity.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Funnel adapts a plain function into a Sink, optionally filtered by
// a kind mask. Useful for tests and ad-hoc probes.
type Funnel struct {
	Mask KindMask
	Fn   func(e *Event)
}

// Event implements Sink.
func (f *Funnel) Event(e *Event) {
	if f.Mask.Has(e.Kind) {
		f.Fn(e)
	}
}
