// Package topo is the fabric underneath the simulator: one row-major
// W x H grid (Topology) with a wraparound flag per dimension, and the
// minimal dimension-order routing over it (RoutingFunction), which
// turns (current, destination) pairs into output directions and exposes
// the legal-turn predicate the punch encoder prunes with.
//
// The paper's 2D mesh is the grid with neither dimension wrapped, and
// dimension-order routing on it is XY routing with a single VC class.
// The torus wraps both dimensions and the ring (a 1xN degenerate torus)
// wraps X only; both break their channel-dependency cycles with a
// dateline VC class on the wrap links. Everything above this package —
// encoder, fabric, router, network, checks — is written against these
// two types, so the paper's Table 1 code books fall out of the
// unwrapped case rather than being hardwired.
package topo

import (
	"fmt"

	"powerpunch/internal/mesh"
)

// Kind identifies a fabric family.
type Kind int

const (
	// KindMesh is the paper's 2D mesh (no wraparound links).
	KindMesh Kind = iota
	// KindTorus is a 2D torus: both dimensions wrap.
	KindTorus
	// KindRing is a 1xN ring: a degenerate torus with a single wrapped
	// dimension.
	KindRing
)

// String returns the canonical lowercase name used in configs and flags.
func (k Kind) String() string {
	switch k {
	case KindMesh:
		return "mesh"
	case KindTorus:
		return "torus"
	case KindRing:
		return "ring"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a topology name. The empty string selects the mesh,
// so configurations predating the topology field keep their meaning.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "mesh":
		return KindMesh, nil
	case "torus":
		return KindTorus, nil
	case "ring":
		return KindRing, nil
	default:
		return KindMesh, fmt.Errorf("topo: unknown topology %q (want mesh, torus, or ring)", s)
	}
}

// RouteError reports a routing query over nodes the fabric cannot
// route between — a corrupted destination, typically. It carries the
// offending coordinates so the failure is diagnosable without a
// debugger.
type RouteError struct {
	Topo     string
	Cur, Dst mesh.NodeID
	CurCoord mesh.Coord
	DstCoord mesh.Coord
	Reason   string
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("topo: cannot route on %s from node %d (%d,%d) to node %d (%d,%d): %s",
		e.Topo, e.Cur, e.CurCoord.X, e.CurCoord.Y, e.Dst, e.DstCoord.X, e.DstCoord.Y, e.Reason)
}

// New constructs the topology of the given kind. Width and height carry
// the same meaning as config.Width/Height; a ring requires height 1.
func New(k Kind, width, height int) (*Topology, error) {
	switch k {
	case KindMesh:
		if width < 1 || height < 1 {
			return nil, fmt.Errorf("topo: invalid mesh dimensions %dx%d", width, height)
		}
		return newGrid(&Topology{kind: KindMesh, w: width, h: height}), nil
	case KindTorus:
		if width < 2 || height < 2 {
			return nil, fmt.Errorf("topo: torus needs both dimensions >= 2, got %dx%d", width, height)
		}
		return newGrid(&Topology{kind: KindTorus, w: width, h: height, wrapX: true, wrapY: true}), nil
	case KindRing:
		if height != 1 {
			return nil, fmt.Errorf("topo: ring needs height 1, got %dx%d", width, height)
		}
		if width < 2 {
			return nil, fmt.Errorf("topo: ring needs >= 2 nodes, got %d", width)
		}
		return newGrid(&Topology{kind: KindRing, w: width, h: 1, wrapX: true}), nil
	default:
		return nil, fmt.Errorf("topo: unknown kind %v", k)
	}
}

// Routing returns the dimension-order routing function over t: XY on
// the mesh, the shorter way around each wrapped dimension with
// dateline VC classes on torus and ring.
func Routing(t *Topology) *RoutingFunction { return &RoutingFunction{t: t} }

// Build resolves a config-level topology name and dimensions into a
// routing function (and, via Topology(), the fabric itself).
func Build(name string, width, height int) (*RoutingFunction, error) {
	k, err := ParseKind(name)
	if err != nil {
		return nil, err
	}
	t, err := New(k, width, height)
	if err != nil {
		return nil, err
	}
	return Routing(t), nil
}

// MustRoute is Route for callers on paths where a routing error is a
// programming error; it panics with the underlying *RouteError.
func MustRoute(rf *RoutingFunction, cur, dst mesh.NodeID) mesh.Direction {
	d, err := rf.Route(cur, dst)
	if err != nil {
		panic(err)
	}
	return d
}

// MustNextHop is NextHop for callers on paths where a routing error is
// a programming error; it panics with the underlying *RouteError.
func MustNextHop(rf *RoutingFunction, cur, dst mesh.NodeID) mesh.NodeID {
	n, err := rf.NextHop(cur, dst)
	if err != nil {
		panic(err)
	}
	return n
}

// Path returns the full routed path from src to dst, inclusive of both
// endpoints. Path(rf, src, src) returns [src].
func Path(rf *RoutingFunction, src, dst mesh.NodeID) []mesh.NodeID {
	path := []mesh.NodeID{src}
	cur := src
	for cur != dst {
		cur = MustNextHop(rf, cur, dst)
		path = append(path, cur)
	}
	return path
}

// Ahead returns the router k hops ahead of cur on the path to dst. If
// fewer than k hops remain it returns dst; Ahead(rf, cur, dst, 0) is
// cur. This is the paper's targeted-router computation; it panics with
// a *RouteError when either node is not part of the fabric.
func Ahead(rf *RoutingFunction, cur, dst mesh.NodeID, k int) mesh.NodeID {
	dx, dy := AheadOffset(rf, cur, dst, k)
	return rf.t.Translate(cur, dx, dy)
}

// AheadOffset is Ahead as an offset from cur, in O(1): the routed
// offset to dst with the k hops spent on X first, then Y, as
// dimension-order routing spends them. It panics with a *RouteError
// when either node is not part of the fabric.
func AheadOffset(rf *RoutingFunction, cur, dst mesh.NodeID, k int) (dx, dy int) {
	dx, dy, err := rf.Offset(cur, dst)
	if err != nil {
		panic(err)
	}
	dx = max(-k, min(dx, k))
	if dx < 0 {
		k += dx
	} else {
		k -= dx
	}
	return dx, max(-k, min(dy, k))
}

// OnPath reports whether node lies on the routed path from src to dst
// (inclusive of the endpoints).
func OnPath(rf *RoutingFunction, src, dst, node mesh.NodeID) bool {
	cur := src
	for {
		if cur == node {
			return true
		}
		if cur == dst {
			return false
		}
		cur = MustNextHop(rf, cur, dst)
	}
}

// PathUsesLink reports whether the routed path from src to dst
// traverses the directed link a -> b.
func PathUsesLink(rf *RoutingFunction, src, dst, a, b mesh.NodeID) bool {
	cur := src
	for cur != dst {
		next := MustNextHop(rf, cur, dst)
		if cur == a && next == b {
			return true
		}
		cur = next
	}
	return false
}

// routeError builds a *RouteError with coordinates filled in where the
// nodes are part of the fabric.
func routeError(t *Topology, cur, dst mesh.NodeID, reason string) *RouteError {
	e := &RouteError{Topo: t.String(), Cur: cur, Dst: dst, Reason: reason}
	if t.Contains(cur) {
		e.CurCoord = t.CoordOf(cur)
	} else {
		e.CurCoord = mesh.Coord{X: -1, Y: -1}
	}
	if t.Contains(dst) {
		e.DstCoord = t.CoordOf(dst)
	} else {
		e.DstCoord = mesh.Coord{X: -1, Y: -1}
	}
	return e
}
