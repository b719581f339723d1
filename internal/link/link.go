// Package link models inter-router channels as fixed-latency pipes:
// anything pushed in cycle t becomes visible to the receiver in cycle
// t + delay. Flit channels, credit channels, and any other latched
// sideband all use the same generic pipe.
package link

import (
	"fmt"

	"powerpunch/internal/workset"
)

// Pipe is a fixed-latency delivery queue. The zero value is unusable;
// use NewPipe. Pipe is not concurrency-safe: the simulator's single
// cycle loop owns it.
type Pipe[T any] struct {
	delay int64
	q     []entry[T]
	// busy is set while anything is in flight (see Track).
	busy workset.Bit
}

type entry[T any] struct {
	at int64
	v  T
}

// NewPipe returns a pipe with the given latency in cycles (>= 1).
func NewPipe[T any](delay int) *Pipe[T] {
	if delay < 1 {
		panic(fmt.Sprintf("link: pipe delay must be >= 1, got %d", delay))
	}
	// One push per cycle stays in flight for `delay` cycles, so the
	// queue's steady-state occupancy is bounded by delay plus the
	// consumer's same-cycle lag. Preallocating that bound keeps Push
	// allocation-free in the steady state (append still grows the
	// queue if a caller bursts past it).
	return &Pipe[T]{delay: int64(delay), q: make([]entry[T], 0, delay+2)}
}

// Delay returns the pipe latency in cycles.
func (p *Pipe[T]) Delay() int { return int(p.delay) }

// Track makes b the pipe's occupancy bit: the pipe sets it on Push and
// clears it when a drain empties the pipe. It is written at once from
// the current contents.
func (p *Pipe[T]) Track(b workset.Bit) {
	p.busy = b
	b.Put(len(p.q) > 0)
}

// Push enqueues v at cycle now; it arrives at now + delay. Pushes must
// occur in nondecreasing `now` order.
func (p *Pipe[T]) Push(v T, now int64) {
	p.q = append(p.q, entry[T]{at: now + p.delay, v: v})
	p.busy.Set()
}

// drop removes the n oldest items.
func (p *Pipe[T]) drop(n int) {
	p.q = p.q[:copy(p.q, p.q[n:])]
	if len(p.q) == 0 {
		p.busy.Clear()
	}
}

// PopArrived removes and returns every item whose arrival time is <= now,
// in FIFO order. The returned slice is valid until the next call.
func (p *Pipe[T]) PopArrived(now int64) []T {
	n := 0
	for n < len(p.q) && p.q[n].at <= now {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		out[i] = p.q[i].v
	}
	p.drop(n)
	return out
}

// Empty reports whether nothing is in flight.
func (p *Pipe[T]) Empty() bool { return len(p.q) == 0 }

// Len returns the number of in-flight items.
func (p *Pipe[T]) Len() int { return len(p.q) }

// Drain invokes fn on every item whose arrival time is <= now, in FIFO
// order, removing them from the pipe. It allocates nothing and is the
// preferred form in the cycle loop.
func (p *Pipe[T]) Drain(now int64, fn func(T)) {
	n := 0
	for n < len(p.q) && p.q[n].at <= now {
		fn(p.q[n].v)
		n++
	}
	if n > 0 {
		p.drop(n)
	}
}

// DrainAppend removes every item whose arrival time is <= now, in FIFO
// order, appending them to buf and returning the extended slice. It is
// the closure-free counterpart of Drain for the allocation-free cycle
// loop: callers pass a reused scratch slice (typically buf[:0]).
func (p *Pipe[T]) DrainAppend(now int64, buf []T) []T {
	n := 0
	for n < len(p.q) && p.q[n].at <= now {
		buf = append(buf, p.q[n].v)
		n++
	}
	if n > 0 {
		p.drop(n)
	}
	return buf
}

// ForEach visits every in-flight item in FIFO order without removing it
// (used by invariant checks).
func (p *Pipe[T]) ForEach(fn func(T)) {
	for i := range p.q {
		fn(p.q[i].v)
	}
}

// StaleCount returns the number of in-flight items already due (arrival
// time <= now). After a cycle's delivery phase it must be zero; the
// invariant engine uses it to detect missed deliveries.
func (p *Pipe[T]) StaleCount(now int64) int {
	n := 0
	for i := range p.q {
		if p.q[i].at <= now {
			n++
		}
	}
	return n
}
