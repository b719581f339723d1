package router

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
