package topo

import (
	"fmt"

	"powerpunch/internal/mesh"
)

// Topology is a W x H grid with optional wraparound per dimension: the
// mesh wraps neither, the torus both, and the ring is W x 1 wrapping X
// only. Nodes are numbered row-major in the mesh package's coordinate
// frame (paper Figure 4: node 0 top-left, X+ east, Y+ south) and every
// router has the five-port model (N/S/E/W + Local); a direction with
// no link — off a mesh edge, or North on a ring — has no neighbor.
type Topology struct {
	kind         Kind
	w, h         int
	wrapX, wrapY bool
	// nodes serves CoordOf and Neighbor from a table built by newGrid,
	// so routing never divides.
	nodes []nodeEntry
}

// nodeEntry is one node's coordinate and link neighbors (by direction).
type nodeEntry struct {
	c   mesh.Coord
	nbr [mesh.NumLinkDirs]mesh.NodeID
}

// newGrid builds t's lookup table and returns t. The table is filled
// before it is installed, so Neighbor computes every entry from the
// coordinates.
func newGrid(t *Topology) *Topology {
	nodes := make([]nodeEntry, t.NumNodes())
	for id := range nodes {
		nodes[id].c = mesh.Coord{X: id % t.w, Y: id / t.w}
		for _, d := range mesh.LinkDirections {
			nodes[id].nbr[d] = t.Neighbor(mesh.NodeID(id), d)
		}
	}
	t.nodes = nodes
	return t
}

// Kind identifies the fabric family.
func (t *Topology) Kind() Kind { return t.kind }

// Width is the number of columns.
func (t *Topology) Width() int { return t.w }

// Height is the number of rows (1 on a ring).
func (t *Topology) Height() int { return t.h }

// NumNodes is the total node count.
func (t *Topology) NumNodes() int { return t.w * t.h }

// Contains reports whether id is a valid node.
func (t *Topology) Contains(id mesh.NodeID) bool {
	return id >= 0 && int(id) < t.NumNodes()
}

// CoordOf returns the coordinate of node id.
func (t *Topology) CoordOf(id mesh.NodeID) mesh.Coord {
	if uint(id) < uint(len(t.nodes)) {
		return t.nodes[id].c
	}
	return mesh.Coord{X: int(id) % t.w, Y: int(id) / t.w}
}

// NodeAt returns the node at c, or mesh.Invalid when c is outside the
// grid.
func (t *Topology) NodeAt(c mesh.Coord) mesh.NodeID {
	if c.X < 0 || c.X >= t.w || c.Y < 0 || c.Y >= t.h {
		return mesh.Invalid
	}
	return mesh.NodeID(c.Y*t.w + c.X)
}

// Translate returns the node at offset (dx, dy) from id, wrapping
// around wrapped dimensions, or mesh.Invalid when the offset leaves an
// unwrapped edge.
func (t *Topology) Translate(id mesh.NodeID, dx, dy int) mesh.NodeID {
	c := t.CoordOf(id)
	x, y := c.X+dx, c.Y+dy
	if t.wrapX {
		x = (x%t.w + t.w) % t.w
	}
	if t.wrapY {
		y = (y%t.h + t.h) % t.h
	}
	return t.NodeAt(mesh.Coord{X: x, Y: y})
}

// Neighbor returns the node one hop from id in direction d, or
// mesh.Invalid when no such link exists (or d is Local).
func (t *Topology) Neighbor(id mesh.NodeID, d mesh.Direction) mesh.NodeID {
	if uint(id) < uint(len(t.nodes)) && uint(d) < mesh.NumLinkDirs {
		return t.nodes[id].nbr[d]
	}
	if !t.Contains(id) {
		return mesh.Invalid
	}
	c := t.CoordOf(id)
	dx, dy := mesh.Step(d)
	if dx == 0 && dy == 0 {
		return mesh.Invalid // Local or unknown direction
	}
	c.X += dx
	c.Y += dy
	if t.wrapX {
		c.X = (c.X + t.w) % t.w
	}
	if t.wrapY {
		c.Y = (c.Y + t.h) % t.h
	}
	return t.NodeAt(c)
}

// dimDist is the minimal distance along one dimension of size n,
// wrapping if wrap is set.
func dimDist(a, b, n int, wrap bool) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap && n-d < d {
		d = n - d
	}
	return d
}

// HopDistance is the minimal hop count between two nodes: the
// Manhattan distance, taking the shorter way around wrapped dimensions.
func (t *Topology) HopDistance(a, b mesh.NodeID) int {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	return dimDist(ca.X, cb.X, t.w, t.wrapX) + dimDist(ca.Y, cb.Y, t.h, t.wrapY)
}

// Diameter is the maximum HopDistance over all node pairs.
func (t *Topology) Diameter() int {
	d := 0
	if t.wrapX {
		d += t.w / 2
	} else {
		d += t.w - 1
	}
	if t.wrapY {
		d += t.h / 2
	} else {
		d += t.h - 1
	}
	return d
}

// Links enumerates every unidirectional inter-router link in a
// deterministic order (by source node, then N,S,E,W).
func (t *Topology) Links() []mesh.Link {
	var links []mesh.Link
	for id := mesh.NodeID(0); t.Contains(id); id++ {
		for _, d := range mesh.LinkDirections {
			if n := t.Neighbor(id, d); n != mesh.Invalid {
				links = append(links, mesh.Link{Src: id, Dst: n, Dir: d})
			}
		}
	}
	return links
}

// NodesWithin returns all nodes whose hop distance from id is in
// [1, k], in ascending NodeID order (paper Section 3's "24 routers
// within 3 hops of router 27").
func (t *Topology) NodesWithin(id mesh.NodeID, k int) []mesh.NodeID {
	var out []mesh.NodeID
	for n := mesh.NodeID(0); t.Contains(n); n++ {
		if n == id {
			continue
		}
		if d := t.HopDistance(id, n); d >= 1 && d <= k {
			out = append(out, n)
		}
	}
	return out
}

// Corners returns the memory-controller placement sites: the four grid
// corners in the order NW, NE, SW, SE, deduplicated for degenerate
// shapes. The paper places one memory controller at each corner.
func (t *Topology) Corners() []mesh.NodeID {
	set := map[mesh.NodeID]bool{}
	var out []mesh.NodeID
	for _, c := range []mesh.Coord{
		{X: 0, Y: 0},
		{X: t.w - 1, Y: 0},
		{X: 0, Y: t.h - 1},
		{X: t.w - 1, Y: t.h - 1},
	} {
		id := t.NodeAt(c)
		if !set[id] {
			set[id] = true
			out = append(out, id)
		}
	}
	return out
}

// String is a short description such as "8x8 mesh" or "16-node ring".
func (t *Topology) String() string {
	switch t.kind {
	case KindMesh:
		return fmt.Sprintf("%dx%d mesh", t.w, t.h)
	case KindRing:
		return fmt.Sprintf("%d-node ring", t.w)
	default:
		return fmt.Sprintf("%dx%d torus", t.w, t.h)
	}
}

// RoutingFunction is deterministic minimal dimension-order routing over
// a Topology: X first, then Y, taking the shorter way around each
// wrapped dimension (ties break toward East/South so the function is
// deterministic). The direction chosen at any intermediate router
// extends the same path chosen at the source, so Path/Ahead walks are
// well defined. On the mesh, where nothing wraps, this is the paper's
// XY routing.
//
// Deadlock freedom on wrapped dimensions uses the classic dateline
// argument, with the class computed purely from coordinates rather
// than from per-packet state: a packet departing East is in class 0
// exactly when its destination column is behind it (dst.X < cur.X —
// the wrap link from column W-1 to column 0 still lies ahead) and in
// class 1 otherwise. Class-0 eastward packets can therefore never
// occupy the link leaving column 0 (that would need dst.X < 0),
// class-1 eastward packets can never occupy the wrap link leaving
// column W-1 (crossing it requires dst.X < cur.X, i.e. class 0), so
// each class's channel dependency graph is a broken — acyclic — chain
// around the ring. The same holds per direction in Y, and dimension
// order makes the X->Y dependencies acyclic, so the whole fabric is
// deadlock-free with two VC classes. A packet crossing the dateline
// moves from class 0 to class 1, never back; the class resets at the
// X->Y turn, which is safe because the dimensions' channel sets are
// disjoint. The mesh has no cyclic channel dependencies and needs a
// single class.
type RoutingFunction struct {
	t *Topology
}

// Topology returns the fabric this function routes over.
func (r *RoutingFunction) Topology() *Topology { return r.t }

// along is the routed signed distance from cur to dst along one
// dimension of size n: dst-cur without wrap (XY's comparison); with
// wrap, the shorter way around, ties broken toward the positive
// direction.
func along(cur, dst, n int, wrap bool) int {
	d := dst - cur
	if !wrap {
		return d
	}
	if d < 0 {
		d += n
	}
	if d > n-d {
		d -= n
	}
	return d
}

// Offset returns the routed offset from cur to dst: the signed hop
// counts the routed path travels along X and Y (East and South
// positive). It takes the shorter way around each wrapped dimension,
// ties broken toward East/South, so |dx|+|dy| is the hop distance and
// the offset from any router on the path is this one less the hops
// already made. It returns a *RouteError when either node is not part
// of the fabric.
func (r *RoutingFunction) Offset(cur, dst mesh.NodeID) (dx, dy int, err error) {
	if !r.t.Contains(cur) || !r.t.Contains(dst) {
		return 0, 0, routeError(r.t, cur, dst, "node outside the fabric")
	}
	cc, dc := r.t.nodes[cur].c, r.t.nodes[dst].c
	return along(cc.X, dc.X, r.t.w, r.t.wrapX), along(cc.Y, dc.Y, r.t.h, r.t.wrapY), nil
}

// OffsetDirection is the first hop of a routed offset: X first, then
// Y, and mesh.Local for the zero offset.
func OffsetDirection(dx, dy int) mesh.Direction {
	switch {
	case dx > 0:
		return mesh.East
	case dx < 0:
		return mesh.West
	case dy > 0:
		return mesh.South
	case dy < 0:
		return mesh.North
	}
	return mesh.Local
}

// Route computes the output direction at cur for a packet destined to
// dst. It returns mesh.Local when cur == dst, and a *RouteError when
// either node is not part of the fabric.
func (r *RoutingFunction) Route(cur, dst mesh.NodeID) (mesh.Direction, error) {
	dx, dy, err := r.Offset(cur, dst)
	if err != nil {
		return mesh.Local, err
	}
	return OffsetDirection(dx, dy), nil
}

// NextHop returns the next router on the path from cur to dst (cur
// itself when cur == dst), or a *RouteError for corrupted inputs.
func (r *RoutingFunction) NextHop(cur, dst mesh.NodeID) (mesh.NodeID, error) {
	d, err := r.Route(cur, dst)
	if err != nil {
		return mesh.Invalid, err
	}
	if d == mesh.Local {
		return cur, nil
	}
	n := r.t.Neighbor(cur, d)
	if n == mesh.Invalid {
		return mesh.Invalid, routeError(r.t, cur, dst, fmt.Sprintf("no link %v", d))
	}
	return n, nil
}

// LegalTurn reports whether a packet travelling in direction `in` may
// depart in direction `out`. Dimension order forbids Y-to-X turns and
// minimal routing never reverses; injection (in == Local) and ejection
// (out == Local) are always legal. Direction along each dimension is
// fixed for a packet's whole traversal (the shorter-way choice is
// consistent hop to hop), so the no-reversal clause holds on wrapped
// dimensions too. The punch encoder uses this to prune impossible
// signal combinations (paper Section 4.1, step 3).
func (r *RoutingFunction) LegalTurn(in, out mesh.Direction) bool {
	if in == mesh.Local || out == mesh.Local {
		return true
	}
	if in.IsY() && out.IsX() {
		return false
	}
	if out == in.Opposite() {
		return false
	}
	return true
}

// VCClasses is the number of dateline VC classes the function needs
// for deadlock freedom: 1 when nothing wraps (the mesh), 2 otherwise.
func (r *RoutingFunction) VCClasses() int {
	if r.t.wrapX || r.t.wrapY {
		return 2
	}
	return 1
}

// ClassFor returns the dateline class (in [0, VCClasses())) a packet
// at cur destined to dst must use when departing in direction d.
// Class 0 is the pre-dateline class (the packet still has the wrap
// link of d's dimension ahead of it); class 1 is post-dateline. With
// VCClasses() == 1 it always returns 0.
func (r *RoutingFunction) ClassFor(cur, dst mesh.NodeID, d mesh.Direction) int {
	if r.VCClasses() == 1 {
		return 0
	}
	cc, dc := r.t.CoordOf(cur), r.t.CoordOf(dst)
	switch d {
	case mesh.East:
		if r.t.wrapX && dc.X < cc.X {
			return 0
		}
	case mesh.West:
		if r.t.wrapX && dc.X > cc.X {
			return 0
		}
	case mesh.South:
		if r.t.wrapY && dc.Y < cc.Y {
			return 0
		}
	case mesh.North:
		if r.t.wrapY && dc.Y > cc.Y {
			return 0
		}
	}
	return 1
}

// String names the algorithm: "XY" on the mesh, "torus-DOR" or
// "ring-DOR" on the wrapped fabrics.
func (r *RoutingFunction) String() string {
	switch r.t.kind {
	case KindMesh:
		return "XY"
	case KindRing:
		return "ring-DOR"
	default:
		return "torus-DOR"
	}
}
