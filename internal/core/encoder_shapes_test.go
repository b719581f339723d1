package core

import (
	"fmt"
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// bruteForceCodeBook enumerates, without the incremental-reduction
// shortcut EncodeChannel uses, every distinct reduced target set a
// channel can carry: all unions of at most one target per emitter,
// each reduced independently. It is the ground truth the fast
// enumerator must match. Returns nil (and ok=false) when the naive
// product of choices is too large to walk.
func bruteForceCodeBook(rf *topo.RoutingFunction, e *ChannelEncoding) (map[string]TargetSet, bool) {
	product := 1
	for _, em := range e.Emitters {
		product *= 1 + len(em.Targets)
		if product > 1<<18 {
			return nil, false
		}
	}
	sets := map[string]TargetSet{}
	var walk func(i int, acc []mesh.NodeID)
	walk = func(i int, acc []mesh.NodeID) {
		if i == len(e.Emitters) {
			if len(acc) == 0 {
				return
			}
			red := reduceTargets(rf, e.Router, acc)
			sets[red.Key()] = red
			return
		}
		walk(i+1, acc) // emitter silent
		for _, tg := range e.Emitters[i].Targets {
			walk(i+1, append(acc, tg))
		}
	}
	walk(0, nil)
	return sets, true
}

// TestEncoderMatchesBruteForceAcrossShapes is the satellite property
// test for the generic enumerator: on non-square and tiny meshes (2x2,
// 4x8, 8x4) and on the wrapped fabrics (4x4 torus, 8-node ring), every
// channel's code book must contain exactly the brute-force set of
// reachable reduced target sets — no phantom codes, no missing
// combinations — and every code must round-trip through CodeForSet.
func TestEncoderMatchesBruteForceAcrossShapes(t *testing.T) {
	fabrics := []struct {
		name          string
		width, height int
	}{
		{"mesh", 2, 2},
		{"mesh", 4, 8},
		{"mesh", 8, 4},
		{"torus", 4, 4},
		{"ring", 8, 1},
	}
	for _, fab := range fabrics {
		rf, err := topo.Build(fab.name, fab.width, fab.height)
		if err != nil {
			t.Fatal(err)
		}
		top := rf.Topology()
		for hops := 1; hops <= 3; hops++ {
			if hops > top.Diameter() {
				continue
			}
			t.Run(fmt.Sprintf("%dx%d-%s/hops=%d", fab.width, fab.height, fab.name, hops), func(t *testing.T) {
				channels := 0
				for r := mesh.NodeID(0); top.Contains(r); r++ {
					for _, d := range mesh.LinkDirections {
						e := EncodeChannel(rf, r, d, hops)
						if e == nil {
							if top.Neighbor(r, d) != mesh.Invalid {
								t.Fatalf("r%d %v: link exists but channel is nil", r, d)
							}
							continue
						}
						channels++
						want, ok := bruteForceCodeBook(rf, e)
						if !ok {
							t.Fatalf("r%d %v: brute force infeasible (%d emitters)", r, d, len(e.Emitters))
						}
						if len(want) != len(e.Codes) {
							t.Fatalf("r%d %v: enumerator found %d sets, brute force %d",
								r, d, len(e.Codes), len(want))
						}
						for _, c := range e.Codes {
							if _, present := want[c.Set.Key()]; !present {
								t.Fatalf("r%d %v: phantom code %v not reachable by any emitter choice",
									r, d, c.Set)
							}
							if got := e.CodeForSet(c.Set); got != c.Code+1 {
								t.Fatalf("r%d %v: CodeForSet(%v) = %d, want %d", r, d, c.Set, got, c.Code+1)
							}
						}
					}
				}
				if channels == 0 {
					t.Fatal("no channels enumerated")
				}
			})
		}
	}
}

// TestLargeFabricWidthsSaturate pins the punch code-book widths on the
// scaled 32x32 and 64x64 fabrics. The reach set of a punch channel is
// purely local — every target lies within PunchHops of the emitting
// router — so once the fabric is large enough to contain a router with
// a full interior neighborhood the widths stop growing: a 32x32 or
// 64x64 mesh at 3-hop punch needs exactly the paper's Table 1 widths
// (5-bit X, 2-bit Y), and the wrapped torus (every router interior by
// symmetry) saturates at its own fixed point independent of side
// length once width > 2*hops. The property makes the large-fabric
// configs first-class without re-deriving Table 1: scaling the fabric
// scales router count, never punch-channel wiring.
func TestLargeFabricWidthsSaturate(t *testing.T) {
	// maxWidthsOver encodes only the given routers. A router's code
	// book depends solely on its hops-radius neighborhood shape, so a
	// sample covering every distinct edge-distance class yields the
	// same maximum as the full MaxChannelWidths scan at a fraction
	// of the cost (a 64x64 full scan is ~16k channel enumerations).
	maxWidthsOver := func(rf *topo.RoutingFunction, hops int, routers []mesh.NodeID) (xBits, yBits int) {
		for _, r := range routers {
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
	// Every distinct neighborhood shape on a size x size mesh appears
	// among routers whose per-axis border distance is in [0, 2*hops]:
	// sample the full (2*hops+1)^2 corner block and the two clamped
	// axes' worth of classes via a cross through the center.
	meshSample := func(size, hops int) []mesh.NodeID {
		var rs []mesh.NodeID
		classes := func(n int) []int {
			var cs []int
			for d := 0; d <= 2*hops && d < n; d++ {
				cs = append(cs, d, n-1-d)
			}
			return append(cs, n/2)
		}
		for _, y := range classes(size) {
			for _, x := range classes(size) {
				rs = append(rs, mesh.NodeID(y*size+x))
			}
		}
		return rs
	}
	for _, size := range []int{32, 64} {
		rf, err := topo.Build("mesh", size, size)
		if err != nil {
			t.Fatal(err)
		}
		x, y := maxWidthsOver(rf, 3, meshSample(size, 3))
		if x != 5 || y != 2 {
			t.Errorf("%dx%d mesh, 3-hop: widths X=%d Y=%d, want the Table 1 saturation point 5/2",
				size, size, x, y)
		}
	}
	// The 32x32 full scan stays cheap enough to keep one exhaustive
	// MaxChannelWidths call in the property, guarding the sampling
	// shortcut itself.
	full, err := topo.Build("mesh", 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := MaxChannelWidths(full, 3); x != 5 || y != 2 {
		t.Errorf("32x32 mesh full scan: widths X=%d Y=%d, want 5/2", x, y)
	}
	// Torus fixed point: derive the saturated widths on the smallest
	// unwrapped-reach torus (width > 2*hops on both axes) and require
	// the 32x32 and 64x64 tori to match it exactly. The torus is
	// vertex-transitive, so one router per fabric carries the whole
	// code book; assert that symmetry on a second sampled router.
	ref, err := topo.Build("torus", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantX, wantY := MaxChannelWidths(ref, 3)
	if wantX < 5 || wantY < 2 {
		// Wrapping removes edge truncation, so the torus code book can
		// never be narrower than the mesh interior's.
		t.Fatalf("8x8 torus reference widths X=%d Y=%d below the mesh interior 5/2", wantX, wantY)
	}
	for _, size := range []int{32, 64} {
		rf, err := topo.Build("torus", size, size)
		if err != nil {
			t.Fatal(err)
		}
		sample := []mesh.NodeID{0, mesh.NodeID(size*size/2 + size/2)}
		x, y := maxWidthsOver(rf, 3, sample)
		if x != wantX || y != wantY {
			t.Errorf("%dx%d torus, 3-hop: widths X=%d Y=%d, want the saturated %d/%d",
				size, size, x, y, wantX, wantY)
		}
		for _, r := range sample {
			for _, d := range mesh.LinkDirections {
				if enc := EncodeChannel(rf, r, d, 3); enc == nil {
					t.Errorf("%dx%d torus: router %d %v has no punch channel", size, size, r, d)
				}
			}
		}
	}
}

// TestNonSquareWidthsAreConsistent pins the channel widths the
// enumerator derives for the rectangular meshes: X channels see at most
// the same emitter structure as the square mesh's rows, so a 4x8 and an
// 8x4 mesh at 3-hop punch must stay within the paper's 5-bit X / 2-bit
// Y envelope, and the 8x8 values remain the regression oracle.
func TestNonSquareWidthsAreConsistent(t *testing.T) {
	for _, tc := range []struct {
		w, h       int
		maxX, maxY int
	}{
		{2, 2, 2, 1},
		{4, 8, 5, 2},
		{8, 4, 5, 2},
		{8, 8, 5, 2},
	} {
		x, y := MaxChannelWidths(meshRF(tc.w, tc.h), 3)
		if x > tc.maxX || y > tc.maxY {
			t.Errorf("%dx%d: widths X=%d Y=%d exceed envelope X<=%d Y<=%d",
				tc.w, tc.h, x, y, tc.maxX, tc.maxY)
		}
		if tc.w == 8 && tc.h == 8 && (x != 5 || y != 2) {
			t.Errorf("8x8 regression oracle: got X=%d Y=%d, want 5/2", x, y)
		}
	}
}
