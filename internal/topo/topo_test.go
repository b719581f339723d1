package topo

import (
	"strings"
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/routing"
)

func mustBuild(t *testing.T, name string, w, h int) RoutingFunction {
	t.Helper()
	rf, err := Build(name, w, h)
	if err != nil {
		t.Fatalf("Build(%q, %d, %d): %v", name, w, h, err)
	}
	return rf
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

// TestMeshAdapterMatchesMesh pins that the Topology adapter is a pure
// view over mesh.Mesh: every query agrees with the concrete type, so
// the refactor cannot have changed mesh behaviour.
func TestMeshAdapterMatchesMesh(t *testing.T) {
	m := mesh.New(4, 3)
	tp := FromMesh(m)
	if tp.Kind() != KindMesh || tp.NumNodes() != 12 || tp.Diameter() != 5 {
		t.Fatalf("adapter basics wrong: kind=%v nodes=%d diam=%d", tp.Kind(), tp.NumNodes(), tp.Diameter())
	}
	if Mesh(tp) != m {
		t.Fatal("Mesh() did not unwrap the adapter")
	}
	for id := mesh.NodeID(0); m.Contains(id); id++ {
		if tp.CoordOf(id) != m.CoordOf(id) {
			t.Fatalf("CoordOf(%d) mismatch", id)
		}
		for _, d := range mesh.LinkDirections {
			if tp.Neighbor(id, d) != m.Neighbor(id, d) {
				t.Fatalf("Neighbor(%d, %v) mismatch", id, d)
			}
		}
		for n := mesh.NodeID(0); m.Contains(n); n++ {
			if tp.HopDistance(id, n) != m.HopDistance(id, n) {
				t.Fatalf("HopDistance(%d, %d) mismatch", id, n)
			}
		}
	}
	if len(tp.Links()) != len(m.Links()) {
		t.Fatal("Links() mismatch")
	}
}

// TestXYRoutingMatchesRoutingPackage pins that the mesh RoutingFunction
// is exactly package routing's XY: same direction at every (cur, dst)
// pair, same legal turns. Golden/bench bit-identity on the mesh depends
// on this.
func TestXYRoutingMatchesRoutingPackage(t *testing.T) {
	m := mesh.New(5, 4)
	rf := mustBuild(t, "mesh", 5, 4)
	for cur := mesh.NodeID(0); m.Contains(cur); cur++ {
		for dst := mesh.NodeID(0); m.Contains(dst); dst++ {
			got, err := rf.Route(cur, dst)
			if err != nil {
				t.Fatalf("Route(%d, %d): %v", cur, dst, err)
			}
			if want := routing.XY(m, cur, dst); got != want {
				t.Fatalf("Route(%d, %d) = %v, routing.XY says %v", cur, dst, got, want)
			}
			nh, err := rf.NextHop(cur, dst)
			if err != nil {
				t.Fatalf("NextHop(%d, %d): %v", cur, dst, err)
			}
			if want := routing.NextHop(m, cur, dst); nh != want {
				t.Fatalf("NextHop(%d, %d) = %d, routing says %d", cur, dst, nh, want)
			}
		}
	}
	for _, in := range []mesh.Direction{mesh.North, mesh.South, mesh.East, mesh.West, mesh.Local} {
		for _, out := range []mesh.Direction{mesh.North, mesh.South, mesh.East, mesh.West, mesh.Local} {
			if rf.LegalTurn(in, out) != routing.LegalTurn(in, out) {
				t.Fatalf("LegalTurn(%v, %v) diverges from routing.LegalTurn", in, out)
			}
		}
	}
	if rf.VCClasses() != 1 {
		t.Fatalf("mesh needs no dateline classes, got %d", rf.VCClasses())
	}
}

// TestRouteErrorsCarryCoordinates is the satellite requirement: a
// corrupted destination produces a typed error naming the offending
// coordinates instead of a panic.
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

// TestDORRoutesAreMinimalAndConsistent checks, for every (src, dst)
// pair on torus and ring fabrics, that the routed path exists, has
// exactly HopDistance hops (minimal), and that each intermediate
// router's independent decision extends the same path (consistency —
// what makes Path/Ahead walks well defined).
func TestDORRoutesAreMinimalAndConsistent(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
	}{
		{"torus", 4, 4}, {"torus", 5, 3}, {"torus", 2, 2}, {"ring", 8, 1}, {"ring", 5, 1}, {"ring", 2, 1},
	} {
		rf := mustBuild(t, tc.name, tc.w, tc.h)
		g := rf.Topology()
		for src := mesh.NodeID(0); g.Contains(src); src++ {
			for dst := mesh.NodeID(0); g.Contains(dst); dst++ {
				path := Path(rf, src, dst)
				if got, want := len(path)-1, g.HopDistance(src, dst); got != want {
					t.Fatalf("%s %dx%d: path %d->%d has %d hops, distance is %d",
						tc.name, tc.w, tc.h, src, dst, got, want)
				}
				for i := 0; i+1 < len(path); i++ {
					d := MustRoute(rf, path[i], dst)
					if g.Neighbor(path[i], d) != path[i+1] {
						t.Fatalf("%s: inconsistent decision at hop %d of %d->%d", tc.name, i, src, dst)
					}
					if i > 0 {
						prev := MustRoute(rf, path[i-1], dst)
						if !rf.LegalTurn(prev, d) {
							t.Fatalf("%s: illegal turn %v->%v on path %d->%d", tc.name, prev, d, src, dst)
						}
					}
				}
			}
		}
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
