// Package topo abstracts the fabric underneath the simulator: a
// Topology enumerates nodes, ports, and links; a RoutingFunction turns
// (current, destination) pairs into output directions and exposes the
// legal-turn predicate the punch encoder prunes with.
//
// The 2D mesh with XY dimension-order routing (package mesh + package
// routing) is one implementation; the torus (wraparound links, deadlock
// freedom via a dateline VC class on wrap links) and the ring (a 1xN
// degenerate torus) are the others. Everything above this package —
// encoder, fabric, router, network, checks — is written against these
// two interfaces, so the paper's Table 1 code books fall out of the
// XY-mesh special case rather than being hardwired.
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

// Topology enumerates the nodes, coordinates, and unidirectional links
// of a fabric. All fabrics use the mesh package's coordinate frame and
// five-port router model (N/S/E/W + Local); a direction with no link —
// North on a ring, say — simply has no neighbor.
type Topology interface {
	// Kind identifies the fabric family.
	Kind() Kind
	// Width and Height are the grid dimensions (a ring is Width x 1).
	Width() int
	Height() int
	// NumNodes is the total node count.
	NumNodes() int
	// Contains reports whether id is a valid node.
	Contains(id mesh.NodeID) bool
	// CoordOf returns the coordinate of node id.
	CoordOf(id mesh.NodeID) mesh.Coord
	// NodeAt returns the node at c, or mesh.Invalid when c is outside
	// the grid.
	NodeAt(c mesh.Coord) mesh.NodeID
	// Neighbor returns the node one hop from id in direction d, or
	// mesh.Invalid when no such link exists (or d is Local).
	Neighbor(id mesh.NodeID, d mesh.Direction) mesh.NodeID
	// HopDistance is the minimal hop count between two nodes (wrap-aware
	// on torus and ring).
	HopDistance(a, b mesh.NodeID) int
	// Diameter is the maximum HopDistance over all node pairs.
	Diameter() int
	// Links enumerates every unidirectional inter-router link in a
	// deterministic order (by source node, then N,S,E,W).
	Links() []mesh.Link
	// NodesWithin returns all nodes whose hop distance from id is in
	// [1, k], in ascending NodeID order.
	NodesWithin(id mesh.NodeID, k int) []mesh.NodeID
	// Corners returns the memory-controller placement sites: the four
	// grid corners (deduplicated for degenerate shapes).
	Corners() []mesh.NodeID
	// String is a short description such as "8x8 mesh" or "16-node ring".
	String() string
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

// RoutingFunction is a deterministic minimal routing algorithm over a
// Topology. Implementations must be consistent along a path: the
// direction chosen at any intermediate router extends the same minimal
// path chosen at the source, so Path/Ahead walks are well defined.
type RoutingFunction interface {
	// Topology returns the fabric this function routes over.
	Topology() Topology
	// Route computes the output direction at cur for a packet destined
	// to dst. It returns mesh.Local when cur == dst, and a *RouteError
	// when either node is not part of the fabric.
	Route(cur, dst mesh.NodeID) (mesh.Direction, error)
	// NextHop returns the next router on the path from cur to dst (cur
	// itself when cur == dst), or a *RouteError for corrupted inputs.
	NextHop(cur, dst mesh.NodeID) (mesh.NodeID, error)
	// LegalTurn reports whether a packet travelling in direction `in`
	// may depart in direction `out`. The punch encoder uses this to
	// prune impossible signal combinations (paper Section 4.1, step 3).
	LegalTurn(in, out mesh.Direction) bool
	// VCClasses is the number of dateline VC classes the function needs
	// for deadlock freedom: 1 on the mesh, 2 on fabrics with wrap links.
	VCClasses() int
	// ClassFor returns the dateline class (in [0, VCClasses())) a packet
	// at cur destined to dst must use when departing in direction d.
	// Class 0 is the pre-dateline class (the packet still has the wrap
	// link of d's dimension ahead of it); class 1 is post-dateline.
	// With VCClasses() == 1 it always returns 0.
	ClassFor(cur, dst mesh.NodeID, d mesh.Direction) int
	// String names the algorithm, e.g. "XY" or "torus-DOR".
	String() string
}

// New constructs the topology of the given kind. Width and height carry
// the same meaning as config.Width/Height; a ring requires height 1.
func New(k Kind, width, height int) (Topology, error) {
	switch k {
	case KindMesh:
		if width < 1 || height < 1 {
			return nil, fmt.Errorf("topo: invalid mesh dimensions %dx%d", width, height)
		}
		return FromMesh(mesh.New(width, height)), nil
	case KindTorus:
		if width < 2 || height < 2 {
			return nil, fmt.Errorf("topo: torus needs both dimensions >= 2, got %dx%d", width, height)
		}
		return newGrid(&grid{kind: KindTorus, w: width, h: height, wrapX: true, wrapY: true}), nil
	case KindRing:
		if height != 1 {
			return nil, fmt.Errorf("topo: ring needs height 1, got %dx%d", width, height)
		}
		if width < 2 {
			return nil, fmt.Errorf("topo: ring needs >= 2 nodes, got %d", width)
		}
		return newGrid(&grid{kind: KindRing, w: width, h: 1, wrapX: true}), nil
	default:
		return nil, fmt.Errorf("topo: unknown kind %v", k)
	}
}

// Routing returns the canonical deterministic routing function for t:
// XY on the mesh, minimal dimension-order routing with dateline VC
// classes on torus and ring.
func Routing(t Topology) RoutingFunction {
	switch tt := t.(type) {
	case *meshTopo:
		return &xyRouting{t: tt}
	case *grid:
		return &dorRouting{t: tt}
	default:
		panic(fmt.Sprintf("topo: no routing function for topology %T", t))
	}
}

// Build resolves a config-level topology name and dimensions into a
// routing function (and, via Topology(), the fabric itself).
func Build(name string, width, height int) (RoutingFunction, error) {
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
func MustRoute(rf RoutingFunction, cur, dst mesh.NodeID) mesh.Direction {
	d, err := rf.Route(cur, dst)
	if err != nil {
		panic(err)
	}
	return d
}

// MustNextHop is NextHop for callers on paths where a routing error is
// a programming error; it panics with the underlying *RouteError.
func MustNextHop(rf RoutingFunction, cur, dst mesh.NodeID) mesh.NodeID {
	n, err := rf.NextHop(cur, dst)
	if err != nil {
		panic(err)
	}
	return n
}

// Path returns the full routed path from src to dst, inclusive of both
// endpoints. Path(rf, src, src) returns [src].
func Path(rf RoutingFunction, src, dst mesh.NodeID) []mesh.NodeID {
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
// cur. This is the paper's targeted-router computation.
func Ahead(rf RoutingFunction, cur, dst mesh.NodeID, k int) mesh.NodeID {
	node := cur
	for i := 0; i < k && node != dst; i++ {
		node = MustNextHop(rf, node, dst)
	}
	return node
}

// HopsRemaining returns the hop count left on the path from cur to dst.
// The routing functions here are minimal, so this is the topology's hop
// distance.
func HopsRemaining(rf RoutingFunction, cur, dst mesh.NodeID) int {
	return rf.Topology().HopDistance(cur, dst)
}

// OnPath reports whether node lies on the routed path from src to dst
// (inclusive of the endpoints).
func OnPath(rf RoutingFunction, src, dst, node mesh.NodeID) bool {
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
func PathUsesLink(rf RoutingFunction, src, dst, a, b mesh.NodeID) bool {
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
func routeError(t Topology, cur, dst mesh.NodeID, reason string) *RouteError {
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
