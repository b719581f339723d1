package topo

import (
	"fmt"

	"powerpunch/internal/mesh"
)

// grid is a W x H grid with optional wraparound per dimension: the
// torus wraps both, the ring is W x 1 wrapping X only. It reuses the
// mesh package's row-major node numbering and coordinate frame, so a
// torus node's ID matches the same node on a mesh of the same shape.
type grid struct {
	kind         Kind
	w, h         int
	wrapX, wrapY bool
	// nodes serves CoordOf and Neighbor from a table built by newGrid,
	// so routing never divides.
	nodes []mesh.NodeEntry
}

// newGrid builds g's lookup table and returns g.
func newGrid(g *grid) *grid {
	g.nodes = mesh.NodeTable(g.NumNodes(), g.w, g.Neighbor)
	return g
}

func (g *grid) Kind() Kind    { return g.kind }
func (g *grid) Width() int    { return g.w }
func (g *grid) Height() int   { return g.h }
func (g *grid) NumNodes() int { return g.w * g.h }

func (g *grid) Contains(id mesh.NodeID) bool {
	return id >= 0 && int(id) < g.NumNodes()
}

func (g *grid) CoordOf(id mesh.NodeID) mesh.Coord {
	if uint(id) < uint(len(g.nodes)) {
		return g.nodes[id].C
	}
	return mesh.Coord{X: int(id) % g.w, Y: int(id) / g.w}
}

func (g *grid) NodeAt(c mesh.Coord) mesh.NodeID {
	if c.X < 0 || c.X >= g.w || c.Y < 0 || c.Y >= g.h {
		return mesh.Invalid
	}
	return mesh.NodeID(c.Y*g.w + c.X)
}

func (g *grid) Neighbor(id mesh.NodeID, d mesh.Direction) mesh.NodeID {
	if uint(id) < uint(len(g.nodes)) && uint(d) < mesh.NumLinkDirs {
		return g.nodes[id].Nbr[d]
	}
	if !g.Contains(id) {
		return mesh.Invalid
	}
	c := g.CoordOf(id)
	dx, dy := mesh.Step(d)
	if dx == 0 && dy == 0 {
		return mesh.Invalid // Local or unknown direction
	}
	c.X += dx
	c.Y += dy
	if g.wrapX {
		c.X = (c.X + g.w) % g.w
	}
	if g.wrapY {
		c.Y = (c.Y + g.h) % g.h
	}
	return g.NodeAt(c)
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

func (g *grid) HopDistance(a, b mesh.NodeID) int {
	ca, cb := g.CoordOf(a), g.CoordOf(b)
	return dimDist(ca.X, cb.X, g.w, g.wrapX) + dimDist(ca.Y, cb.Y, g.h, g.wrapY)
}

func (g *grid) Diameter() int {
	d := 0
	if g.wrapX {
		d += g.w / 2
	} else {
		d += g.w - 1
	}
	if g.wrapY {
		d += g.h / 2
	} else {
		d += g.h - 1
	}
	return d
}

func (g *grid) Links() []mesh.Link {
	var links []mesh.Link
	for id := mesh.NodeID(0); g.Contains(id); id++ {
		for _, d := range mesh.LinkDirections {
			if n := g.Neighbor(id, d); n != mesh.Invalid {
				links = append(links, mesh.Link{Src: id, Dst: n, Dir: d})
			}
		}
	}
	return links
}

func (g *grid) NodesWithin(id mesh.NodeID, k int) []mesh.NodeID {
	var out []mesh.NodeID
	for n := mesh.NodeID(0); g.Contains(n); n++ {
		if n == id {
			continue
		}
		if d := g.HopDistance(id, n); d >= 1 && d <= k {
			out = append(out, n)
		}
	}
	return out
}

func (g *grid) Corners() []mesh.NodeID {
	set := map[mesh.NodeID]bool{}
	var out []mesh.NodeID
	for _, c := range []mesh.Coord{
		{X: 0, Y: 0},
		{X: g.w - 1, Y: 0},
		{X: 0, Y: g.h - 1},
		{X: g.w - 1, Y: g.h - 1},
	} {
		id := g.NodeAt(c)
		if !set[id] {
			set[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (g *grid) String() string {
	if g.kind == KindRing {
		return fmt.Sprintf("%d-node ring", g.w)
	}
	return fmt.Sprintf("%dx%d torus", g.w, g.h)
}

// dorRouting is minimal dimension-order routing on a wrapped grid: X
// first, then Y, taking the shorter way around each wrapped dimension
// (ties break toward East/South so the function is deterministic).
//
// Deadlock freedom uses the classic dateline argument, with the class
// computed purely from coordinates rather than from per-packet state:
// a packet departing East is in class 0 exactly when its destination
// column is behind it (dst.X < cur.X — the wrap link from column W-1
// to column 0 still lies ahead) and in class 1 otherwise. Class-0
// eastward packets can therefore never occupy the link leaving column
// 0 (that would need dst.X < 0), class-1 eastward packets can never
// occupy the wrap link leaving column W-1 (crossing it requires
// dst.X < cur.X, i.e. class 0), so each class's channel dependency
// graph is a broken — acyclic — chain around the ring. The same holds
// per direction in Y, and dimension order makes the X->Y dependencies
// acyclic, so the whole fabric is deadlock-free with two VC classes.
// A packet crossing the dateline moves from class 0 to class 1, never
// back; the class resets at the X->Y turn, which is safe because the
// dimensions' channel sets are disjoint.
type dorRouting struct {
	t *grid
}

func (r *dorRouting) Topology() Topology { return r.t }

// dirAlong picks the travel direction along one dimension: neg/pos are
// the directions of decreasing/increasing coordinate, n the dimension
// size. With wrap it takes the shorter way, breaking ties toward pos.
func dirAlong(cur, dst, n int, wrap bool, neg, pos mesh.Direction) mesh.Direction {
	if !wrap {
		if dst > cur {
			return pos
		}
		return neg
	}
	fwd := ((dst - cur) + n) % n // hops going pos
	if fwd <= n-fwd {
		return pos
	}
	return neg
}

func (r *dorRouting) Route(cur, dst mesh.NodeID) (mesh.Direction, error) {
	if !r.t.Contains(cur) || !r.t.Contains(dst) {
		return mesh.Local, routeError(r.t, cur, dst, "node outside the fabric")
	}
	cc, dc := r.t.CoordOf(cur), r.t.CoordOf(dst)
	if cc.X != dc.X {
		return dirAlong(cc.X, dc.X, r.t.w, r.t.wrapX, mesh.West, mesh.East), nil
	}
	if cc.Y != dc.Y {
		return dirAlong(cc.Y, dc.Y, r.t.h, r.t.wrapY, mesh.North, mesh.South), nil
	}
	return mesh.Local, nil
}

func (r *dorRouting) NextHop(cur, dst mesh.NodeID) (mesh.NodeID, error) {
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

// LegalTurn uses the same rule as XY: dimension order forbids Y-to-X
// turns, and minimal routing never reverses. Direction along each
// dimension is fixed for a packet's whole traversal (the shorter-way
// choice is consistent hop to hop), so the no-reversal clause holds on
// wrapped dimensions too.
func (r *dorRouting) LegalTurn(in, out mesh.Direction) bool {
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

func (r *dorRouting) VCClasses() int { return 2 }

func (r *dorRouting) ClassFor(cur, dst mesh.NodeID, d mesh.Direction) int {
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

func (r *dorRouting) String() string {
	if r.t.kind == KindRing {
		return "ring-DOR"
	}
	return "torus-DOR"
}
