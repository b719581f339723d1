package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// A TargetSet is a reduced, canonical (sorted) set of targeted routers as
// carried by one punch channel in one cycle.
type TargetSet []mesh.NodeID

// Key returns a canonical string key for map lookups.
func (s TargetSet) Key() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = fmt.Sprintf("%d", t)
	}
	return strings.Join(parts, ",")
}

// String renders the set in the paper's notation, e.g. "{ 21, 36 }".
func (s TargetSet) String() string {
	parts := make([]string, len(s))
	for i, t := range s {
		parts[i] = fmt.Sprintf("%d", t)
	}
	return "{ " + strings.Join(parts, ", ") + " }"
}

// Emitter describes one router that can place a wakeup signal on a given
// punch channel, together with the targets it can name (paper Section
// 4.1, step 3).
type Emitter struct {
	Router  mesh.NodeID
	Targets []mesh.NodeID
}

// ChannelCode is one entry of the channel's code book: a distinct reduced
// target set and its binary encoding.
type ChannelCode struct {
	Set  TargetSet
	Code int
}

// ChannelEncoding is the complete code book for one punch channel,
// reproducing the paper's Table 1 for the X+ channel of router 27.
type ChannelEncoding struct {
	Router    mesh.NodeID
	Direction mesh.Direction
	Hops      int
	Emitters  []Emitter
	Codes     []ChannelCode
	// WidthBits is the channel width needed to distinguish every code
	// plus the idle (no punch) state.
	WidthBits int

	rf *topo.RoutingFunction // the routing function the book was derived under
}

// EncodeChannel enumerates every distinct reduced target set that can
// appear on the punch channel leaving router r in direction d, for
// punch hop-count `hops`, under the given routing function's legality.
// It applies the paper's five-step reduction (Section 4.1), with the
// routing function supplying the path and legality structure XY used to:
//
//  1. targets are determined by the (deterministic, minimal) routing
//     function,
//  2. intermediate routers need no explicit information,
//  3. only emitters whose routed path crosses the channel can use it,
//  4. a target on the routed path to another target is implicit and
//     removed,
//  5. the remaining distinct sets are numbered; the channel width is
//     ceil(log2(#sets + 1)) to include the idle state.
//
// It returns nil when the channel does not exist (edge of a mesh, Y
// direction of a ring).
func EncodeChannel(rf *topo.RoutingFunction, r mesh.NodeID, d mesh.Direction, hops int) *ChannelEncoding {
	t := rf.Topology()
	next := t.Neighbor(r, d)
	if next == mesh.Invalid || d == mesh.Local {
		return nil
	}

	emitters := channelEmitters(rf, r, d, hops)

	// Enumerate the distinct reduced sets reachable by choosing at most
	// one target per emitter. Processing emitters one at a time and
	// keeping only distinct reduced sets is sound because reduction keeps
	// the maximal elements of the "lies on the routed path to" partial
	// order, and maximal(maximal(A) ∪ B) == maximal(A ∪ B); it also keeps
	// the enumeration polynomial in the (small) number of distinct codes.
	seen := map[string]TargetSet{"": {}}
	for _, em := range emitters {
		next := make(map[string]TargetSet, len(seen)*2)
		for k, s := range seen {
			next[k] = s // emitter silent
			for _, tg := range em.Targets {
				comb := make([]mesh.NodeID, 0, len(s)+1)
				comb = append(comb, s...)
				comb = append(comb, tg)
				red := reduceTargets(rf, r, comb)
				next[red.Key()] = red
			}
		}
		seen = next
	}
	delete(seen, "") // the idle state is encoded separately

	codes := make([]ChannelCode, 0, len(seen))
	for _, set := range seen {
		codes = append(codes, ChannelCode{Set: set})
	}
	// Deterministic order: smaller sets first, then lexicographic,
	// mirroring Table 1's singles-then-pairs layout.
	sort.Slice(codes, func(i, j int) bool {
		a, b := codes[i].Set, codes[j].Set
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	for i := range codes {
		codes[i].Code = i
	}

	return &ChannelEncoding{
		Router:    r,
		Direction: d,
		Hops:      hops,
		Emitters:  emitters,
		Codes:     codes,
		WidthBits: widthBits(len(codes)),
		rf:        rf,
	}
}

// widthBits returns the bits needed for n codes plus one idle state.
func widthBits(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n)) // codes 1..n, 0 = idle
}

// channelEmitters returns, in upstream-to-downstream order ending at r,
// the routers whose wakeup signals can traverse the channel r->d and the
// targets each can name. An emitter E holding a packet names target
// T = Ahead(E, dst, hops); the signal uses this channel iff the routed
// path E->T includes the link r->next. Since dist(E,T) <= hops and T
// lies strictly beyond r, emitters satisfy dist(E,r) < hops.
func channelEmitters(rf *topo.RoutingFunction, r mesh.NodeID, d mesh.Direction, hops int) []Emitter {
	t := rf.Topology()
	next := t.Neighbor(r, d)
	var emitters []Emitter
	for n := mesh.NodeID(0); t.Contains(n); n++ {
		if t.HopDistance(n, r) >= hops {
			continue
		}
		var targets []mesh.NodeID
		for tg := mesh.NodeID(0); t.Contains(tg); tg++ {
			if tg == n || t.HopDistance(n, tg) > hops {
				continue
			}
			if topo.PathUsesLink(rf, n, tg, r, next) {
				targets = append(targets, tg)
			}
		}
		if len(targets) > 0 {
			emitters = append(emitters, Emitter{Router: n, Targets: targets})
		}
	}
	// Emitters sorted by distance from r descending (farthest upstream
	// first), matching the paper's presentation (R25, R26, R27).
	sort.Slice(emitters, func(i, j int) bool {
		di, dj := t.HopDistance(emitters[i].Router, r), t.HopDistance(emitters[j].Router, r)
		if di != dj {
			return di > dj
		}
		return emitters[i].Router < emitters[j].Router
	})
	return emitters
}

// reduceTargets removes targets implicitly contained in others: T1 is
// implicit if it lies on the routed path from r to some other target T2
// (paper step 4). The result is canonical (sorted, unique).
func reduceTargets(rf *topo.RoutingFunction, r mesh.NodeID, targets []mesh.NodeID) TargetSet {
	uniq := make([]mesh.NodeID, 0, len(targets))
	for _, t := range targets {
		dup := false
		for _, u := range uniq {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, t)
		}
	}
	var out TargetSet
	for _, t := range uniq {
		implicit := false
		for _, u := range uniq {
			if u == t {
				continue
			}
			// t is implicit if it lies on the path r->u (strictly before u).
			if topo.OnPath(rf, r, u, t) {
				implicit = true
				break
			}
		}
		if !implicit {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxChannelWidths computes, over every router of the fabric, the
// maximum punch-channel width in each dimension for the given hop count.
// The paper reports 5-bit X / 2-bit Y for 3-hop punch and 8-bit X /
// 2-bit Y for 4-hop punch on the 8x8 mesh.
func MaxChannelWidths(rf *topo.RoutingFunction, hops int) (xBits, yBits int) {
	t := rf.Topology()
	for r := mesh.NodeID(0); t.Contains(r); r++ {
		for _, d := range mesh.LinkDirections {
			enc := EncodeChannel(rf, r, d, hops)
			if enc == nil {
				continue
			}
			if d.IsX() && enc.WidthBits > xBits {
				xBits = enc.WidthBits
			}
			if d.IsY() && enc.WidthBits > yBits {
				yBits = enc.WidthBits
			}
		}
	}
	return xBits, yBits
}

// CodeForSet returns the channel code for a set of raw (unreduced)
// targets under the encoding's own routing function, or -1 if the
// merged set is not encodable on this channel. Code 0 is reserved for
// the idle state; valid punch codes start at 1.
func (e *ChannelEncoding) CodeForSet(targets []mesh.NodeID) int {
	red := reduceTargets(e.rf, e.Router, targets)
	key := red.Key()
	for _, c := range e.Codes {
		if c.Set.Key() == key {
			return c.Code + 1
		}
	}
	return -1
}

// SetFor returns the reduced target set for a wire code (1-based; 0 is
// idle), or nil if the code is out of range.
func (e *ChannelEncoding) SetFor(code int) TargetSet {
	if code < 1 || code > len(e.Codes) {
		return nil
	}
	return e.Codes[code-1].Set
}

// FormatTable renders the encoding as a text table in the style of the
// paper's Table 1.
func (e *ChannelEncoding) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Punch channel: router %d, direction %s, %d-hop (width %d bits)\n",
		e.Router, e.Direction, e.Hops, e.WidthBits)
	fmt.Fprintf(&b, "Emitters:")
	for _, em := range e.Emitters {
		fmt.Fprintf(&b, " R%d(%d targets)", em.Router, len(em.Targets))
	}
	fmt.Fprintf(&b, "\n%-4s %-24s %s\n", "#", "Set of Targeted Routers", "Punch Signal")
	for i, c := range e.Codes {
		fmt.Fprintf(&b, "%-4d %-24s %0*b\n", i+1, c.Set.String(), e.WidthBits, c.Code+1)
	}
	return b.String()
}
