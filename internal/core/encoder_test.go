package core

import (
	"sort"
	"testing"
	"testing/quick"

	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// table1Sets are the 22 distinct sets of the paper's Table 1 (router 27,
// X+ direction, 3-hop punch on an 8x8 mesh).
var table1Sets = [][]mesh.NodeID{
	{28}, {12}, {21}, {30}, {37}, {44}, {20}, {29}, {36},
	{12, 29}, {12, 36}, {21, 20}, {21, 36}, {30, 20}, {30, 36},
	{37, 20}, {37, 36}, {44, 20}, {44, 29}, {20, 29}, {20, 36}, {29, 36},
}

func canon(s []mesh.NodeID) string {
	c := make([]mesh.NodeID, len(s))
	copy(c, s)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return TargetSet(c).Key()
}

func TestEncodeChannelReproducesTable1(t *testing.T) {
	rf := meshRF(8, 8)
	enc := EncodeChannel(rf, 27, mesh.East, 3)
	if enc == nil {
		t.Fatal("nil encoding")
	}
	if len(enc.Codes) != 22 {
		t.Fatalf("distinct sets = %d, want 22 (paper Table 1)", len(enc.Codes))
	}
	if enc.WidthBits != 5 {
		t.Fatalf("width = %d bits, want 5", enc.WidthBits)
	}
	want := map[string]bool{}
	for _, s := range table1Sets {
		want[canon(s)] = true
	}
	for _, c := range enc.Codes {
		if !want[c.Set.Key()] {
			t.Errorf("unexpected set %v (not in paper Table 1)", c.Set)
		}
		delete(want, c.Set.Key())
	}
	for k := range want {
		t.Errorf("missing Table 1 set {%s}", k)
	}
}

func TestEncodeChannelEmittersMatchPaper(t *testing.T) {
	// Section 4.1 step 3: on R27's X+ channel, only R25, R26, and R27
	// can be wakeup-signal sources; R27 has 9 possible targets, R26 has
	// 4, and R25 has 1 (always R28).
	rf := meshRF(8, 8)
	enc := EncodeChannel(rf, 27, mesh.East, 3)
	if len(enc.Emitters) != 3 {
		t.Fatalf("emitters = %d, want 3", len(enc.Emitters))
	}
	wantTargets := map[mesh.NodeID]int{25: 1, 26: 4, 27: 9}
	for _, e := range enc.Emitters {
		if want, ok := wantTargets[e.Router]; !ok || len(e.Targets) != want {
			t.Errorf("emitter R%d has %d targets, want %d", e.Router, len(e.Targets), wantTargets[e.Router])
		}
	}
	// R25's only target is R28.
	for _, e := range enc.Emitters {
		if e.Router == 25 && (len(e.Targets) != 1 || e.Targets[0] != 28) {
			t.Errorf("R25 targets = %v, want [28]", e.Targets)
		}
	}
}

func TestYChannelHasThreeSets(t *testing.T) {
	// Section 4.1 step 4: Y-direction punch channels have only 3
	// distinct sets ({1 hop}, {2 hops}, {3 hops} straight ahead), hence
	// 2 bits.
	rf := meshRF(8, 8)
	for _, d := range []mesh.Direction{mesh.North, mesh.South} {
		enc := EncodeChannel(rf, 27, d, 3)
		if enc == nil {
			t.Fatalf("no %v channel for router 27", d)
		}
		if len(enc.Codes) != 3 {
			t.Errorf("%v channel: %d sets, want 3", d, len(enc.Codes))
		}
		if enc.WidthBits != 2 {
			t.Errorf("%v channel: %d bits, want 2", d, enc.WidthBits)
		}
		for _, c := range enc.Codes {
			if len(c.Set) != 1 {
				t.Errorf("%v channel set %v should be a single target", d, c.Set)
			}
		}
	}
}

func TestMaxChannelWidthsMatchPaper(t *testing.T) {
	rf := meshRF(8, 8)
	x3, y3 := MaxChannelWidths(rf, 3)
	if x3 != 5 || y3 != 2 {
		t.Errorf("3-hop widths = (%d,%d), want (5,2) per Section 4.1", x3, y3)
	}
	x4, _ := MaxChannelWidths(rf, 4)
	if x4 != 8 {
		t.Errorf("4-hop X width = %d, want 8 per Section 4.1 step 5", x4)
	}
}

func TestEdgeChannelsAreNarrowerOrEqual(t *testing.T) {
	// Routers at the mesh edge have fewer upstream emitters, so their
	// channels never need more bits than an interior router's.
	rf := meshRF(8, 8)
	interior := EncodeChannel(rf, 27, mesh.East, 3)
	for _, r := range []mesh.NodeID{0, 7, 56, 63, 8, 1} {
		for _, d := range mesh.LinkDirections {
			enc := EncodeChannel(rf, r, d, 3)
			if enc == nil {
				continue
			}
			if d.IsX() && enc.WidthBits > interior.WidthBits {
				t.Errorf("edge router %d %v channel wider (%d) than interior (%d)",
					r, d, enc.WidthBits, interior.WidthBits)
			}
		}
	}
}

func TestEncodeChannelNilCases(t *testing.T) {
	rf := meshRF(8, 8)
	if EncodeChannel(rf, 7, mesh.East, 3) != nil {
		t.Error("east edge must have no X+ channel")
	}
	if EncodeChannel(rf, 27, mesh.Local, 3) != nil {
		t.Error("Local is not a punch channel")
	}
}

func TestReduceTargetsProperties(t *testing.T) {
	// Property: reduction is idempotent, order-independent, and only
	// removes targets lying on the XY path to a surviving target.
	rf := meshRF(8, 8)
	r := mesh.NodeID(27)
	pool := []mesh.NodeID{28, 29, 30, 20, 21, 36, 37, 44, 12}
	f := func(picksRaw []uint8) bool {
		if len(picksRaw) > 6 {
			picksRaw = picksRaw[:6]
		}
		var targets []mesh.NodeID
		for _, p := range picksRaw {
			targets = append(targets, pool[int(p)%len(pool)])
		}
		red := reduceTargets(rf, r, targets)
		// Idempotent.
		again := reduceTargets(rf, r, red)
		if again.Key() != red.Key() {
			return false
		}
		// Order-independent.
		rev := make([]mesh.NodeID, len(targets))
		for i, v := range targets {
			rev[len(targets)-1-i] = v
		}
		if reduceTargets(rf, r, rev).Key() != red.Key() {
			return false
		}
		// Every original target is either kept or dominated by a kept one.
		for _, tg := range targets {
			covered := false
			for _, k := range red {
				if tg == k || onXYPath(rf.Topology(), r, k, tg) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// onXYPath is a test-local re-check of path membership.
func onXYPath(m *topo.Topology, from, to, node mesh.NodeID) bool {
	cur := from
	for {
		if cur == node {
			return true
		}
		if cur == to {
			return false
		}
		c, d := m.CoordOf(cur), m.CoordOf(to)
		switch {
		case d.X > c.X:
			cur = m.NodeAt(mesh.Coord{X: c.X + 1, Y: c.Y})
		case d.X < c.X:
			cur = m.NodeAt(mesh.Coord{X: c.X - 1, Y: c.Y})
		case d.Y > c.Y:
			cur = m.NodeAt(mesh.Coord{X: c.X, Y: c.Y + 1})
		default:
			cur = m.NodeAt(mesh.Coord{X: c.X, Y: c.Y - 1})
		}
	}
}

func TestFabricSetsAreAlwaysEncodable(t *testing.T) {
	// Property tying the behavioural fabric to the hardware encoding:
	// under the strict (one-new-punch-per-emitter-channel) regime, every
	// merged target set observed on a channel must appear in that
	// channel's code book.
	rf := meshRF(8, 8)
	enc := EncodeChannel(rf, 27, mesh.East, 3)
	book := map[string]bool{}
	for _, c := range enc.Codes {
		book[c.Set.Key()] = true
	}
	// All single targets an emitter can name are in the book.
	for _, e := range enc.Emitters {
		for _, tg := range e.Targets {
			red := reduceTargets(rf, 27, []mesh.NodeID{tg})
			if !book[red.Key()] {
				t.Errorf("single signal %d->%d not encodable", e.Router, tg)
			}
		}
	}
	// All pairwise merges are in the book.
	for i, e1 := range enc.Emitters {
		for j, e2 := range enc.Emitters {
			if i == j {
				continue
			}
			for _, t1 := range e1.Targets {
				for _, t2 := range e2.Targets {
					red := reduceTargets(rf, 27, []mesh.NodeID{t1, t2})
					if !book[red.Key()] {
						t.Errorf("merge {%d,%d} not encodable", t1, t2)
					}
				}
			}
		}
	}
}

func TestAreaEstimateMatchesPaperBallpark(t *testing.T) {
	rep := EstimateArea(defaultTestConfig(), DefaultAreaModel())
	if rep.XBits != 5 || rep.YBits != 2 {
		t.Errorf("widths (%d,%d), want (5,2)", rep.XBits, rep.YBits)
	}
	// Paper Section 6.6(1): 2.4% of NoC area. Accept the ballpark.
	if rep.OverheadFrac < 0.005 || rep.OverheadFrac > 0.06 {
		t.Errorf("area overhead %.2f%% far from the paper's 2.4%%", rep.OverheadFrac*100)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}

func TestFormatTableOutput(t *testing.T) {
	rf := meshRF(8, 8)
	enc := EncodeChannel(rf, 27, mesh.East, 3)
	out := enc.FormatTable()
	if out == "" {
		t.Fatal("empty table")
	}
}

func TestCodeRoundTrip(t *testing.T) {
	rf := meshRF(8, 8)
	enc := EncodeChannel(rf, 27, mesh.East, 3)
	// Every code book entry round-trips through CodeForSet/SetFor.
	for _, c := range enc.Codes {
		code := enc.CodeForSet(c.Set)
		if code < 1 {
			t.Fatalf("set %v not found by CodeForSet", c.Set)
		}
		if got := enc.SetFor(code); got.Key() != c.Set.Key() {
			t.Fatalf("SetFor(CodeForSet(%v)) = %v", c.Set, got)
		}
	}
	// Unreduced inputs reduce before lookup: {28, 29} -> {29}.
	if code := enc.CodeForSet([]mesh.NodeID{28, 29}); code < 1 || enc.SetFor(code).Key() != "29" {
		t.Errorf("CodeForSet({28,29}) should resolve to the {29} code")
	}
	// Unencodable sets report -1; idle/out-of-range codes return nil.
	if enc.CodeForSet([]mesh.NodeID{21, 30}) != -1 {
		t.Error("{21,30} should be unencodable")
	}
	if enc.SetFor(0) != nil || enc.SetFor(99) != nil {
		t.Error("idle/out-of-range codes must return nil")
	}
}
