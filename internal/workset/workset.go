// Package workset holds the handle through which a simulator component
// keeps its entry in one of the network's dense work summaries current.
// A summary is a bitset over nodes (or node ports) that tells the tick
// loop which components a phase has work for, so the phase can skip the
// rest without touching them. The component owns the state the bit
// describes and writes the bit at every change of that state.
package workset

import "math/bits"

// Bit is one bit of a summary bitset. The zero value is no summary:
// Set, Clear and Put do nothing, as for a component built outside a
// network (standalone unit tests).
type Bit struct {
	w *uint64
	m uint64
}

// Of returns the handle for bit i of set.
func Of(set []uint64, i int) Bit { return Bit{w: &set[i>>6], m: 1 << (i & 63)} }

// Set sets the bit.
func (b Bit) Set() {
	if b.w != nil {
		*b.w |= b.m
	}
}

// Clear clears the bit.
func (b Bit) Clear() {
	if b.w != nil {
		*b.w &^= b.m
	}
}

// Put sets the bit when v holds and clears it otherwise.
func (b Bit) Put(v bool) {
	if v {
		b.Set()
	} else {
		b.Clear()
	}
}

// Has reports whether bit i of set is set.
func Has(set []uint64, i int) bool { return set[i>>6]&(1<<(i&63)) != 0 }

// Next returns the smallest i >= from set in set, or -1.
func Next(set []uint64, from int) int {
	w := from >> 6
	if w >= len(set) {
		return -1
	}
	word := set[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(set) {
			return -1
		}
		word = set[w]
	}
}

// NextAnd returns the smallest i >= from set in both a and b (of equal
// length), or -1. Iterating NextAnd(a, b, 0), NextAnd(a, b, i+1), ...
// visits the common bits in ascending order.
func NextAnd(a, b []uint64, from int) int {
	w := from >> 6
	if w >= len(a) {
		return -1
	}
	word := a[w] & b[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(a) {
			return -1
		}
		word = a[w] & b[w]
	}
}
