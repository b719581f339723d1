package topo

import (
	"fmt"
	"strings"
	"testing"

	"powerpunch/internal/mesh"
)

func mustBuild(t *testing.T, name string, w, h int) *RoutingFunction {
	t.Helper()
	rf, err := Build(name, w, h)
	if err != nil {
		t.Fatalf("Build(%q, %d, %d): %v", name, w, h, err)
	}
	return rf
}

// shapes are the fabrics the table-driven tests sweep: the paper's 8x8
// mesh, rectangular and minimal meshes, tori with even, odd and 2-wide
// dimensions, and rings of even, odd and minimal size.
var shapes = []struct {
	name string
	w, h int
}{
	{"mesh", 8, 8}, {"mesh", 5, 4}, {"mesh", 2, 2},
	{"torus", 4, 4}, {"torus", 5, 3}, {"torus", 2, 2},
	{"ring", 8, 1}, {"ring", 5, 1}, {"ring", 2, 1},
}

// forShapes runs f once per fabric in shapes, as a named subtest.
func forShapes(t *testing.T, f func(t *testing.T, rf *RoutingFunction, g *Topology)) {
	for _, s := range shapes {
		t.Run(fmt.Sprintf("%dx%d-%s", s.w, s.h, s.name), func(t *testing.T) {
			rf := mustBuild(t, s.name, s.w, s.h)
			f(t, rf, rf.Topology())
		})
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindMesh, true},
		{"mesh", KindMesh, true},
		{"torus", KindTorus, true},
		{"ring", KindRing, true},
		{"hypercube", KindMesh, false},
	} {
		k, err := ParseKind(tc.in)
		if (err == nil) != tc.ok || (tc.ok && k != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, ok=%v", tc.in, k, err, tc.want, tc.ok)
		}
	}
}

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, tc := range []struct {
		k    Kind
		w, h int
	}{
		{KindMesh, 0, 4}, {KindMesh, 4, 0}, {KindMesh, -1, 3},
		{KindTorus, 1, 4}, {KindTorus, 4, 1},
		{KindRing, 1, 1}, {KindRing, 8, 2},
		{Kind(9), 4, 4},
	} {
		if g, err := New(tc.k, tc.w, tc.h); err == nil {
			t.Errorf("New(%v, %d, %d) = %v, want an error", tc.k, tc.w, tc.h, g)
		}
	}
}

// TestDerivedValues pins what the wrap flags decide: the names, the
// diameter, and the dateline classes. Nothing wraps on the mesh, so it
// needs one VC class and ClassFor is 0 for every query.
func TestDerivedValues(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w, h     int
		kind     Kind
		topo, rf string
		diameter int
		classes  int
	}{
		{"mesh", 8, 8, KindMesh, "8x8 mesh", "XY", 14, 1},
		{"mesh", 5, 4, KindMesh, "5x4 mesh", "XY", 7, 1},
		{"torus", 4, 4, KindTorus, "4x4 torus", "torus-DOR", 4, 2},
		{"ring", 16, 1, KindRing, "16-node ring", "ring-DOR", 8, 2},
	} {
		rf := mustBuild(t, tc.name, tc.w, tc.h)
		g := rf.Topology()
		if g.Kind() != tc.kind || g.String() != tc.topo || rf.String() != tc.rf {
			t.Errorf("%s %dx%d: kind %v, String %q, routing %q; want %v, %q, %q",
				tc.name, tc.w, tc.h, g.Kind(), g.String(), rf.String(), tc.kind, tc.topo, tc.rf)
		}
		if g.Width() != tc.w || g.Height() != tc.h || g.NumNodes() != tc.w*tc.h || g.Diameter() != tc.diameter {
			t.Errorf("%s: %dx%d, %d nodes, diameter %d; want %dx%d, %d, %d", tc.topo,
				g.Width(), g.Height(), g.NumNodes(), g.Diameter(), tc.w, tc.h, tc.w*tc.h, tc.diameter)
		}
		if rf.VCClasses() != tc.classes {
			t.Errorf("%s: VCClasses = %d, want %d", tc.topo, rf.VCClasses(), tc.classes)
		}
		if tc.classes != 1 {
			continue
		}
		for cur := mesh.NodeID(0); g.Contains(cur); cur++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				for _, d := range mesh.LinkDirections {
					if c := rf.ClassFor(cur, dst, d); c != 0 {
						t.Fatalf("%s: ClassFor(%d, %d, %v) = %d, want 0", tc.topo, cur, dst, d, c)
					}
				}
			}
		}
	}
}

// xyOracle is an independent model of XY routing on a w-wide mesh: X
// until the columns match, then Y. It returns the output direction at
// cur and the router that direction leads to.
func xyOracle(w int, cur, dst mesh.NodeID) (mesh.Direction, mesh.NodeID) {
	cx, cy := int(cur)%w, int(cur)/w
	tx, ty := int(dst)%w, int(dst)/w
	switch {
	case tx > cx:
		return mesh.East, mesh.NodeID(cy*w + cx + 1)
	case tx < cx:
		return mesh.West, mesh.NodeID(cy*w + cx - 1)
	case ty > cy:
		return mesh.South, mesh.NodeID((cy+1)*w + cx)
	case ty < cy:
		return mesh.North, mesh.NodeID((cy-1)*w + cx)
	}
	return mesh.Local, cur
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestMeshGridMatchesOracle checks the unwrapped grid against an
// independent model of the paper's mesh on a 5x4 fabric: row-major
// coordinates, neighbors one step away and none past an edge, and
// Manhattan hop distance.
func TestMeshGridMatchesOracle(t *testing.T) {
	const w, h = 5, 4
	g := mustBuild(t, "mesh", w, h).Topology()
	for cur := mesh.NodeID(0); cur < w*h; cur++ {
		cx, cy := int(cur)%w, int(cur)/w
		if c := g.CoordOf(cur); c != (mesh.Coord{X: cx, Y: cy}) {
			t.Fatalf("CoordOf(%d) = %+v, want (%d,%d)", cur, c, cx, cy)
		}
		for _, d := range mesh.LinkDirections {
			dx, dy := mesh.Step(d)
			nx, ny := cx+dx, cy+dy
			want := mesh.Invalid
			if nx >= 0 && nx < w && ny >= 0 && ny < h {
				want = mesh.NodeID(ny*w + nx)
			}
			if got := g.Neighbor(cur, d); got != want {
				t.Fatalf("Neighbor(%d, %v) = %d, want %d", cur, d, got, want)
			}
		}
		for dst := mesh.NodeID(0); dst < w*h; dst++ {
			tx, ty := int(dst)%w, int(dst)/w
			if got, want := g.HopDistance(cur, dst), abs(tx-cx)+abs(ty-cy); got != want {
				t.Fatalf("HopDistance(%d, %d) = %d, want %d", cur, dst, got, want)
			}
		}
	}
}

// TestMeshRouteMatchesXYOracle pins that the mesh RoutingFunction is
// exactly XY: same direction and same next hop as xyOracle at every
// (cur, dst) pair of a 5x4 mesh. Golden/bench bit-identity on the mesh
// depends on this.
func TestMeshRouteMatchesXYOracle(t *testing.T) {
	const w, h = 5, 4
	rf := mustBuild(t, "mesh", w, h)
	for cur := mesh.NodeID(0); cur < w*h; cur++ {
		for dst := mesh.NodeID(0); dst < w*h; dst++ {
			want, wantHop := xyOracle(w, cur, dst)
			got, err := rf.Route(cur, dst)
			if err != nil || got != want {
				t.Fatalf("Route(%d, %d) = %v, %v; XY says %v", cur, dst, got, err, want)
			}
			nh, err := rf.NextHop(cur, dst)
			if err != nil || nh != wantHop {
				t.Fatalf("NextHop(%d, %d) = %d, %v; XY says %d", cur, dst, nh, err, wantHop)
			}
		}
	}
}

// TestFirstDirectionMatchesXY: the first hop of every routed path on
// the paper's 8x8 mesh leaves the source the way XY says, including the
// Figure 4 case 27->21 (east before north).
func TestFirstDirectionMatchesXY(t *testing.T) {
	const w = 8
	rf := mustBuild(t, "mesh", w, 8)
	g := rf.Topology()
	if d, _ := xyOracle(w, 27, 21); d != mesh.East {
		t.Fatalf("oracle: 27->21 leaves %v, want East", d)
	}
	for src := mesh.NodeID(0); g.Contains(src); src++ {
		for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
			path := Path(rf, src, dst)
			want, wantHop := xyOracle(w, src, dst)
			if len(path) < 2 {
				if want != mesh.Local {
					t.Fatalf("Path(%d, %d) = %v has no first hop; XY leaves %v", src, dst, path, want)
				}
				continue
			}
			if path[1] != wantHop || g.Neighbor(src, want) != path[1] {
				t.Fatalf("Path(%d, %d) first hop %d; XY leaves %v to %d", src, dst, path[1], want, wantHop)
			}
		}
	}
}

func TestXYDirections(t *testing.T) {
	rf := mustBuild(t, "mesh", 8, 8)
	for _, c := range []struct {
		cur, dst mesh.NodeID
		want     mesh.Direction
	}{
		{27, 31, mesh.East},  // same row, east
		{27, 24, mesh.West},  // same row, west
		{27, 3, mesh.North},  // same column, north
		{27, 59, mesh.South}, // same column, south
		{27, 36, mesh.East},  // X resolves before Y
		{27, 20, mesh.East},
		{27, 27, mesh.Local},
	} {
		if got := MustRoute(rf, c.cur, c.dst); got != c.want {
			t.Errorf("Route(%d->%d) = %v, want %v", c.cur, c.dst, got, c.want)
		}
	}
}

func TestPaperNodeNumbering(t *testing.T) {
	// Figure 4: node 27 of the 8x8 mesh is at column 3, row 3; its
	// neighbors are 28 (X+), 35 (Y+), 19 (Y-) and 26 (X-).
	g := mustBuild(t, "mesh", 8, 8).Topology()
	if c := g.CoordOf(27); c.X != 3 || c.Y != 3 {
		t.Fatalf("CoordOf(27) = %+v, want (3,3)", c)
	}
	for d, want := range map[mesh.Direction]mesh.NodeID{mesh.East: 28, mesh.South: 35, mesh.North: 19, mesh.West: 26} {
		if got := g.Neighbor(27, d); got != want {
			t.Errorf("%v neighbor of 27 = %d, want %d", d, got, want)
		}
	}
}

func TestPathPaperExample(t *testing.T) {
	// Section 4.1 step 1: a packet at R26 destined to R31 targets R29;
	// the path runs along the row.
	rf := mustBuild(t, "mesh", 8, 8)
	want := []mesh.NodeID{26, 27, 28, 29, 30, 31}
	if got := Path(rf, 26, 31); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Path(26,31) = %v, want %v", got, want)
	}
	if tr := Ahead(rf, 26, 31, 3); tr != 29 {
		t.Errorf("Ahead(26,31,3) = %d, want 29 (paper targeted router)", tr)
	}
}

// TestAheadClampsAtDestination: Ahead walks at most k hops and never
// past the destination, and Ahead(_, _, 0) is the current router.
func TestAheadClampsAtDestination(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		for cur := mesh.NodeID(0); g.Contains(cur); cur++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				path := Path(rf, cur, dst)
				for k := 0; k <= len(path)+1; k++ {
					want := path[len(path)-1]
					if k < len(path) {
						want = path[k]
					}
					if got := Ahead(rf, cur, dst, k); got != want {
						t.Fatalf("Ahead(%d, %d, %d) = %d, want %d", cur, dst, k, got, want)
					}
				}
			}
		}
	})
}

// TestPathSuffixProperty is the property underlying punch relays
// (Section 4.1 step 2): for any node M on the path from S to D, the
// path from M to D is the suffix of the original path, so punches can
// be re-routed at every relay and still follow the packet's path.
func TestPathSuffixProperty(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				p := Path(rf, src, dst)
				for i, node := range p {
					if sub := Path(rf, node, dst); fmt.Sprint(sub) != fmt.Sprint(p[i:]) {
						t.Fatalf("Path(%d, %d) = %v is not the suffix of Path(%d, %d) = %v",
							node, dst, sub, src, dst, p)
					}
				}
			}
		}
	})
}

// TestDORRoutesAreMinimalAndConsistent checks, for every (src, dst)
// pair on every fabric, that the routed path exists, has exactly
// HopDistance hops (minimal), and that each intermediate router's
// independent decision extends the same path (consistency — what makes
// Path/Ahead walks well defined).
func TestDORRoutesAreMinimalAndConsistent(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				path := Path(rf, src, dst)
				if got, want := len(path)-1, g.HopDistance(src, dst); got != want {
					t.Fatalf("path %d->%d has %d hops, distance is %d", src, dst, got, want)
				}
				for i := 0; i+1 < len(path); i++ {
					if g.Neighbor(path[i], MustRoute(rf, path[i], dst)) != path[i+1] {
						t.Fatalf("inconsistent decision at hop %d of %d->%d", i, src, dst)
					}
				}
			}
		}
	})
}

// TestPathLengthEqualsManhattanDistance: every routed path is as short
// as the coordinates allow — the Manhattan distance, where an axis that
// wraps (both on a torus, X on a ring) counts the shorter way round.
func TestPathLengthEqualsManhattanDistance(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		axis := func(a, b, n int, wraps bool) int {
			d := abs(a - b)
			if wraps && n-d < d {
				d = n - d
			}
			return d
		}
		wrapX, wrapY := g.Kind() != KindMesh, g.Kind() == KindTorus
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				s, d := g.CoordOf(src), g.CoordOf(dst)
				want := axis(s.X, d.X, g.Width(), wrapX) + axis(s.Y, d.Y, g.Height(), wrapY)
				if got := len(Path(rf, src, dst)) - 1; got != want {
					t.Fatalf("path %d->%d has %d hops, Manhattan distance is %d", src, dst, got, want)
				}
			}
		}
	})
}

// TestPathsUseOnlyLegalTurns: no routed path on any fabric takes a turn
// its routing function forbids (on the mesh, no Y-to-X turn: deadlock
// freedom).
func TestPathsUseOnlyLegalTurns(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				path := Path(rf, src, dst)
				in := mesh.Local
				for i := 0; i+1 < len(path); i++ {
					out := MustRoute(rf, path[i], dst)
					if !rf.LegalTurn(in, out) {
						t.Fatalf("illegal turn %v->%v at %d on path %d->%d", in, out, path[i], src, dst)
					}
					in = out
				}
			}
		}
	})
}

func TestLegalTurn(t *testing.T) {
	cases := []struct {
		in, out mesh.Direction
		want    bool
	}{
		{mesh.East, mesh.East, true},
		{mesh.East, mesh.North, true},  // X to Y: legal
		{mesh.East, mesh.South, true},  // X to Y: legal
		{mesh.North, mesh.East, false}, // Y to X: illegal
		{mesh.South, mesh.West, false}, // Y to X: illegal
		{mesh.North, mesh.North, true},
		{mesh.East, mesh.West, false}, // reversal
		{mesh.North, mesh.South, false},
		{mesh.Local, mesh.East, true},
		{mesh.North, mesh.Local, true},
	}
	forShapes(t, func(t *testing.T, rf *RoutingFunction, _ *Topology) {
		for _, c := range cases {
			if got := rf.LegalTurn(c.in, c.out); got != c.want {
				t.Errorf("LegalTurn(%v,%v) = %v, want %v", c.in, c.out, got, c.want)
			}
		}
	})
}

func TestOnPath(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w, h     int
		src, dst mesh.NodeID
		on, off  []mesh.NodeID
	}{
		// Path 27 -> 21 is 27,28,29,21 (paper: "R26 to R29 is along
		// the path from R27 to R21").
		{"mesh", 8, 8, 27, 21, []mesh.NodeID{27, 28, 29, 21}, []mesh.NodeID{26, 20, 37, 13}},
		// On the torus 0 -> 6 wraps west: 0, 7, 6.
		{"torus", 8, 8, 0, 6, []mesh.NodeID{0, 7, 6}, []mesh.NodeID{1, 5, 8}},
		// On the 8-ring 1 -> 6 wraps west: 1, 0, 7, 6.
		{"ring", 8, 1, 1, 6, []mesh.NodeID{1, 0, 7, 6}, []mesh.NodeID{2, 5}},
	} {
		rf := mustBuild(t, tc.name, tc.w, tc.h)
		for _, n := range tc.on {
			if !OnPath(rf, tc.src, tc.dst, n) {
				t.Errorf("%s: OnPath(%d,%d,%d) = false", tc.name, tc.src, tc.dst, n)
			}
		}
		for _, n := range tc.off {
			if OnPath(rf, tc.src, tc.dst, n) {
				t.Errorf("%s: OnPath(%d,%d,%d) = true", tc.name, tc.src, tc.dst, n)
			}
		}
	}
}

// TestPathPanicsOnCorruptDestination: the Must* walks turn a routing
// error into a panic carrying the *RouteError instead of routing off
// the fabric silently. (Destinations are validated upstream; this
// guards the invariant.)
func TestPathPanicsOnCorruptDestination(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		defer func() {
			if _, ok := recover().(*RouteError); !ok {
				t.Error("expected a *RouteError panic for an off-fabric destination")
			}
		}()
		Path(rf, 1, mesh.NodeID(g.NumNodes()))
	})
}

// TestRouteErrorsCarryCoordinates: a corrupted destination produces a
// typed error naming the offending coordinates instead of a panic.
func TestRouteErrorsCarryCoordinates(t *testing.T) {
	for _, name := range []string{"mesh", "torus"} {
		rf := mustBuild(t, name, 4, 4)
		_, err := rf.Route(5, 99)
		re, ok := err.(*RouteError)
		if !ok {
			t.Fatalf("%s: Route with corrupt dst returned %v, want *RouteError", name, err)
		}
		if re.Cur != 5 || re.Dst != 99 {
			t.Fatalf("%s: error nodes = %d, %d", name, re.Cur, re.Dst)
		}
		msg := re.Error()
		if !strings.Contains(msg, "(1,1)") || !strings.Contains(msg, "99") {
			t.Fatalf("%s: error message lacks coordinates: %q", name, msg)
		}
		if _, err := rf.NextHop(5, -3); err == nil {
			t.Fatalf("%s: NextHop with corrupt dst did not error", name)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	forShapes(t, func(t *testing.T, _ *RoutingFunction, g *Topology) {
		for id := mesh.NodeID(0); g.Contains(id); id++ {
			if got := g.NodeAt(g.CoordOf(id)); got != id {
				t.Fatalf("NodeAt(CoordOf(%d)) = %d", id, got)
			}
		}
		for _, c := range []mesh.Coord{{X: -1, Y: 0}, {X: 0, Y: -1}, {X: g.Width(), Y: 0}, {X: 0, Y: g.Height()}} {
			if got := g.NodeAt(c); got != mesh.Invalid {
				t.Errorf("NodeAt(%+v) = %d outside the grid", c, got)
			}
		}
	})
}

func TestNeighborEdges(t *testing.T) {
	g := mustBuild(t, "mesh", 4, 4).Topology()
	cases := []struct {
		id  mesh.NodeID
		d   mesh.Direction
		out mesh.NodeID
	}{
		{0, mesh.North, mesh.Invalid},
		{0, mesh.West, mesh.Invalid},
		{3, mesh.East, mesh.Invalid},
		{12, mesh.South, mesh.Invalid},
		{15, mesh.East, mesh.Invalid},
		{5, mesh.Local, mesh.Invalid},
		{16, mesh.North, mesh.Invalid}, // off the fabric
	}
	for _, c := range cases {
		if got := g.Neighbor(c.id, c.d); got != c.out {
			t.Errorf("Neighbor(%d,%v) = %d, want %d", c.id, c.d, got, c.out)
		}
	}
}

// TestNeighborSymmetry: if B is A's neighbor in direction d, then A is
// B's neighbor in the opposite direction.
func TestNeighborSymmetry(t *testing.T) {
	forShapes(t, func(t *testing.T, _ *RoutingFunction, g *Topology) {
		for id := mesh.NodeID(0); g.Contains(id); id++ {
			for _, d := range mesh.LinkDirections {
				nb := g.Neighbor(id, d)
				if nb != mesh.Invalid && g.Neighbor(nb, d.Opposite()) != id {
					t.Fatalf("Neighbor(%d, %v) = %d but Neighbor(%d, %v) = %d",
						id, d, nb, nb, d.Opposite(), g.Neighbor(nb, d.Opposite()))
				}
			}
		}
	})
}

func TestStepMatchesNeighbor(t *testing.T) {
	g := mustBuild(t, "mesh", 6, 6).Topology()
	c := g.CoordOf(14)
	for _, d := range mesh.LinkDirections {
		dx, dy := mesh.Step(d)
		want := g.NodeAt(mesh.Coord{X: c.X + dx, Y: c.Y + dy})
		if got := g.Neighbor(14, d); got != want {
			t.Errorf("Step/Neighbor mismatch for %v: %d vs %d", d, got, want)
		}
	}
}

// TestHopDistanceProperties: HopDistance is a metric — symmetric, zero
// iff equal, satisfying the triangle inequality — bounded by the
// diameter, which some pair attains.
func TestHopDistanceProperties(t *testing.T) {
	forShapes(t, func(t *testing.T, _ *RoutingFunction, g *Topology) {
		max := 0
		for a := mesh.NodeID(0); g.Contains(a); a++ {
			for b := mesh.NodeID(0); g.Contains(b); b++ {
				dab := g.HopDistance(a, b)
				if dab != g.HopDistance(b, a) || (dab == 0) != (a == b) {
					t.Fatalf("HopDistance(%d, %d) = %d is not symmetric or not zero iff equal", a, b, dab)
				}
				if dab > max {
					max = dab
				}
				for c := mesh.NodeID(0); g.Contains(c); c++ {
					if g.HopDistance(a, c) > dab+g.HopDistance(b, c) {
						t.Fatalf("triangle inequality fails for %d, %d, %d", a, b, c)
					}
				}
			}
		}
		if max != g.Diameter() {
			t.Errorf("largest HopDistance %d, Diameter %d", max, g.Diameter())
		}
	})
}

func TestNodesWithinPaperExample(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
		want int
	}{
		// Section 3: "There are 24 routers within 3 hops of router 27"
		// on the 8x8 mesh. Router 27 is far enough from every edge that
		// the 8x8 torus's wrap links add none.
		{"mesh", 8, 8, 24},
		{"torus", 8, 8, 24},
		{"ring", 8, 1, 6},
	} {
		g := mustBuild(t, tc.name, tc.w, tc.h).Topology()
		id := mesh.NodeID(27 % g.NumNodes())
		within := g.NodesWithin(id, 3)
		if len(within) != tc.want {
			t.Errorf("%s: NodesWithin(%d, 3) = %d routers, want %d", g, id, len(within), tc.want)
		}
		for i, n := range within {
			if d := g.HopDistance(id, n); d < 1 || d > 3 || (i > 0 && n <= within[i-1]) {
				t.Errorf("%s: NodesWithin(%d, 3) = %v is not ascending within [1,3] hops", g, id, within)
			}
		}
	}
}

func TestCorners(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
		want []mesh.NodeID
	}{
		{"mesh", 8, 8, []mesh.NodeID{0, 7, 56, 63}},
		{"mesh", 2, 2, []mesh.NodeID{0, 1, 2, 3}},
		{"mesh", 4, 1, []mesh.NodeID{0, 3}}, // degenerate shapes deduplicate
		{"torus", 4, 4, []mesh.NodeID{0, 3, 12, 15}},
		{"ring", 8, 1, []mesh.NodeID{0, 7}},
	} {
		g := mustBuild(t, tc.name, tc.w, tc.h).Topology()
		if got := g.Corners(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Corners() = %v, want %v", g, got, tc.want)
		}
	}
}

func TestLinksCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
		want int
	}{
		// A WxH mesh has 2*(W*(H-1) + H*(W-1)) unidirectional links; a
		// torus has four per node and a ring two.
		{"mesh", 2, 2, 8}, {"mesh", 4, 4, 48}, {"mesh", 8, 8, 224}, {"mesh", 3, 5, 44},
		{"torus", 5, 3, 60}, {"ring", 8, 1, 16},
	} {
		g := mustBuild(t, tc.name, tc.w, tc.h).Topology()
		if got := len(g.Links()); got != tc.want {
			t.Errorf("%s: %d links, want %d", g, got, tc.want)
		}
	}
}

func TestLinksAreValidAndUnique(t *testing.T) {
	forShapes(t, func(t *testing.T, _ *RoutingFunction, g *Topology) {
		seen := map[mesh.Link]bool{}
		for _, l := range g.Links() {
			if seen[l] {
				t.Fatalf("duplicate link %+v", l)
			}
			seen[l] = true
			if g.Neighbor(l.Src, l.Dir) != l.Dst {
				t.Fatalf("link %+v inconsistent with Neighbor", l)
			}
		}
	})
}

func TestTorusBasics(t *testing.T) {
	rf := mustBuild(t, "torus", 4, 4)
	g := rf.Topology()
	if g.Kind() != KindTorus || g.Diameter() != 4 {
		t.Fatalf("kind=%v diameter=%d", g.Kind(), g.Diameter())
	}
	// Wrap links exist in all four directions.
	if g.Neighbor(0, mesh.West) != 3 || g.Neighbor(0, mesh.North) != 12 {
		t.Fatalf("wrap neighbors wrong: W=%d N=%d", g.Neighbor(0, mesh.West), g.Neighbor(0, mesh.North))
	}
	// Wrap-aware distance: corner to corner is 2, not 6.
	if d := g.HopDistance(0, 15); d != 2 {
		t.Fatalf("HopDistance(0, 15) = %d, want 2", d)
	}
	// Every node has all four links: 4*16 unidirectional links.
	if n := len(g.Links()); n != 64 {
		t.Fatalf("torus links = %d, want 64", n)
	}
}

func TestRingBasics(t *testing.T) {
	rf := mustBuild(t, "ring", 8, 1)
	g := rf.Topology()
	if g.Kind() != KindRing || g.Diameter() != 4 || g.NumNodes() != 8 {
		t.Fatalf("kind=%v diameter=%d nodes=%d", g.Kind(), g.Diameter(), g.NumNodes())
	}
	if g.Neighbor(0, mesh.West) != 7 || g.Neighbor(7, mesh.East) != 0 {
		t.Fatal("ring wrap links wrong")
	}
	if g.Neighbor(3, mesh.North) != mesh.Invalid || g.Neighbor(3, mesh.South) != mesh.Invalid {
		t.Fatal("ring should have no Y links")
	}
	if d := g.HopDistance(1, 7); d != 2 {
		t.Fatalf("HopDistance(1, 7) = %d, want 2", d)
	}
	if _, err := Build("ring", 8, 2); err == nil {
		t.Fatal("ring with height 2 should be rejected")
	}
}

// TestDatelineClasses verifies the deadlock-freedom argument's two
// load-bearing facts on every wrapped fabric: (1) the class is
// monotone along a path — once a packet is in class 1 for a dimension
// it never returns to class 0 before turning; (2) class-1 packets
// never occupy a wrap link and class-0 packets never occupy the link
// leaving the dateline column/row, so each class's dependency chain
// around the ring is broken.
func TestDatelineClasses(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
	}{
		{"torus", 4, 4}, {"torus", 5, 3}, {"ring", 8, 1}, {"ring", 5, 1},
	} {
		rf := mustBuild(t, tc.name, tc.w, tc.h)
		g := rf.Topology()
		if rf.VCClasses() != 2 {
			t.Fatalf("%s: VCClasses = %d, want 2", tc.name, rf.VCClasses())
		}
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				path := Path(rf, src, dst)
				prevClass, prevDir := -1, mesh.Local
				for i := 0; i+1 < len(path); i++ {
					cur, next := path[i], path[i+1]
					d := MustRoute(rf, cur, dst)
					cls := rf.ClassFor(cur, dst, d)
					// (1) monotone within a dimension.
					if d == prevDir && cls < prevClass {
						t.Fatalf("%s: class went backwards (%d->%d) at hop %d of %d->%d",
							tc.name, prevClass, cls, i, src, dst)
					}
					prevClass, prevDir = cls, d
					// (2) wrap links carry only class 0.
					cc, nc := g.CoordOf(cur), g.CoordOf(next)
					wrap := (d == mesh.East && nc.X < cc.X) || (d == mesh.West && nc.X > cc.X) ||
						(d == mesh.South && nc.Y < cc.Y) || (d == mesh.North && nc.Y > cc.Y)
					// On 2-wide dimensions every hop is a tie; treat the
					// canonical wrap (East from last column, etc.) as wrap.
					if wrap && cls != 0 {
						t.Fatalf("%s: class-%d packet on wrap link %d->%d (dir %v, path %d->%d)",
							tc.name, cls, cur, next, d, src, dst)
					}
				}
			}
		}
		// Class-0 packets never leave the first column/row in the same
		// direction (the broken-chain fact), checked directly from the
		// class rule.
		for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
			for _, row := range []int{0} {
				n := g.NodeAt(mesh.Coord{X: 0, Y: row})
				if g.CoordOf(dst).X != 0 && rf.ClassFor(n, dst, mesh.East) == 0 {
					t.Fatalf("%s: class 0 on eastward link leaving column 0 (dst %d)", tc.name, dst)
				}
			}
		}
	}
}

// TestAheadOnTorusUsesWrap pins the punch targeting computation on a
// wrapped fabric: the targeted router follows the minimal (wrapping)
// path, not the mesh path.
func TestAheadOnTorusUsesWrap(t *testing.T) {
	rf := mustBuild(t, "torus", 8, 8)
	// Node 0 to node 6 (row 0): minimal path goes West across the wrap:
	// 0 -> 7 -> 6.
	if got := Ahead(rf, 0, 6, 1); got != 7 {
		t.Fatalf("Ahead(0, 6, 1) = %d, want 7 (wrap west)", got)
	}
	if got := Ahead(rf, 0, 6, 3); got != 6 {
		t.Fatalf("Ahead(0, 6, 3) = %d, want 6", got)
	}
	if !PathUsesLink(rf, 0, 6, 0, 7) {
		t.Fatal("path 0->6 should use wrap link 0->7")
	}
}

// TestAheadMatchesWalk checks the O(1) Ahead against the hop-by-hop
// walk it replaced, kept here as the oracle: for every (cur, dst) pair
// and every punch hop count 1..4, the router k NextHop steps along the
// path (stopping at dst) is Ahead's answer, and AheadOffset translates
// to it. The shapes cover the mesh, tori with odd and even sides (where
// the shorter-way rule has ties to break), the minimal torus and a
// ring.
func TestAheadMatchesWalk(t *testing.T) {
	walk := func(rf *RoutingFunction, cur, dst mesh.NodeID, k int) mesh.NodeID {
		for i := 0; i < k && cur != dst; i++ {
			cur = MustNextHop(rf, cur, dst)
		}
		return cur
	}
	for _, s := range []struct {
		name string
		w, h int
	}{{"mesh", 8, 8}, {"torus", 6, 5}, {"torus", 4, 4}, {"torus", 2, 2}, {"ring", 12, 1}} {
		t.Run(fmt.Sprintf("%dx%d-%s", s.w, s.h, s.name), func(t *testing.T) {
			rf := mustBuild(t, s.name, s.w, s.h)
			g := rf.Topology()
			for cur := mesh.NodeID(0); g.Contains(cur); cur++ {
				for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
					for k := 1; k <= 4; k++ {
						want := walk(rf, cur, dst, k)
						if got := Ahead(rf, cur, dst, k); got != want {
							t.Fatalf("Ahead(%d, %d, %d) = %d, walk gives %d", cur, dst, k, got, want)
						}
						dx, dy := AheadOffset(rf, cur, dst, k)
						if got := g.Translate(cur, dx, dy); got != want {
							t.Fatalf("AheadOffset(%d, %d, %d) = (%d, %d) -> %d, walk gives %d",
								cur, dst, k, dx, dy, got, want)
						}
					}
				}
			}
		})
	}
}

// TestOffsetMatchesRoute pins the routed offset to Route: its first hop
// is Route's direction, its length is the hop distance, and
// translating it from cur lands on dst.
func TestOffsetMatchesRoute(t *testing.T) {
	forShapes(t, func(t *testing.T, rf *RoutingFunction, g *Topology) {
		for cur := mesh.NodeID(0); g.Contains(cur); cur++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				dx, dy, err := rf.Offset(cur, dst)
				if err != nil {
					t.Fatal(err)
				}
				if d := MustRoute(rf, cur, dst); OffsetDirection(dx, dy) != d {
					t.Fatalf("Offset(%d, %d) = (%d, %d): first hop %v, Route %v",
						cur, dst, dx, dy, OffsetDirection(dx, dy), d)
				}
				if n := abs(dx) + abs(dy); n != g.HopDistance(cur, dst) {
					t.Fatalf("Offset(%d, %d) = (%d, %d): %d hops, distance %d",
						cur, dst, dx, dy, n, g.HopDistance(cur, dst))
				}
				if got := g.Translate(cur, dx, dy); got != dst {
					t.Fatalf("Translate(%d, %d, %d) = %d, want %d", cur, dx, dy, got, dst)
				}
			}
		}
	})
	rf := mustBuild(t, "mesh", 4, 4)
	if _, _, err := rf.Offset(0, 16); err == nil {
		t.Error("Offset to a node outside the fabric: want a *RouteError")
	}
}
