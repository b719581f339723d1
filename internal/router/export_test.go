package router

import (
	"unsafe"

	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
)

// Hooks for the external router_test package, whose oracle test drives
// whole networks (package network imports router, so it cannot live in
// package router itself).

// Bitsets returns r's VC-key bitsets: occ, routedTo and vaSet.
func Bitsets(r *Router) (occ []uint64, routedTo [5][]uint64, vaSet []uint64) {
	return r.occ, r.routedTo, r.vaSet
}

// SwitchRR returns the switch allocator's round-robin pointer for output p.
func SwitchRR(r *Router, p int) int { return r.swRR[p] }

// NextSet and RRNext are the stages' ascending and round-robin walks.
var (
	NextSet = nextSet
	RRNext  = rrNext
)

// PopFront removes and returns the front flit of input port d, VC vcIdx,
// as a switch or bypass grant would.
func PopFront(r *Router, d mesh.Direction, vcIdx int) *flit.Flit {
	return r.popFront(r.vcAt(int(d), vcIdx))
}

// CanAcceptFlit reports whether input port d, VC vcIdx has buffer space.
// The NI, which plays the upstream-router role on the Local port, keeps
// its own credit count; routers only check it on ReceiveFlit.
func (r *Router) CanAcceptFlit(d mesh.Direction, vcIdx int) bool {
	v := r.vcAt(int(d), vcIdx)
	return v.count < v.depth
}

// ResidentHeads invokes fn for every packet whose head flit is buffered
// in r, in VC key order and FIFO order within a VC. It reads the flits
// themselves, so it is the oracle EmitPunches' head-destination ring is
// checked against.
func (r *Router) ResidentHeads(fn func(p *flit.Packet)) {
	for key := nextSet(r.occ, 0); key != -1; key = nextSet(r.occ, key+1) {
		v := &r.vcs[key]
		for i := 0; i < int(v.count); i++ {
			if f := r.slots[v.slot(i)]; f.Type.IsHead() {
				fn(f.Packet)
			}
		}
	}
}

// VCRecordSize is the size in bytes of one VC's hot record.
const VCRecordSize = unsafe.Sizeof(vc{})
