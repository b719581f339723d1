package core

import (
	"math/rand"
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/topo"
)

// FuzzFabricMatchesDense drives the fabric and the dense reference
// with the same random stream of EmitSource / EmitLocal / HoldLocal /
// Step calls on a random fabric (any kind, up to 8x8), hop count 1-4,
// strict on or off. The fabric must never panic and must match the
// reference after every Step (compareFabrics), and once the stream ends
// it must drain: a punch travels for hops+1 Steps and its last hold
// clears one Step later, so after hops+2 quiet Steps it needs no more
// stepping.
//
// Each op is three bytes: the call (mod 5: EmitSource twice as often as
// the others, 4 = Step) and two nodes (mod the node count).
func FuzzFabricMatchesDense(f *testing.F) {
	for _, seed := range []struct {
		kind, w, h, hops uint8
		strict           bool
		ops              []byte
	}{
		{0, 8, 8, 3, false, []byte{0, 26, 31, 4, 0, 0, 4, 0, 0, 4, 0, 0}}, // paper R26 -> R31
		{0, 8, 8, 3, true, []byte{0, 27, 31, 1, 27, 21, 0, 27, 59, 4, 0, 0, 4, 0, 0}},
		{0, 8, 8, 3, false, []byte{0, 27, 31, 0, 27, 29, 4, 0, 0, 4, 0, 0}},                  // one channel, two new targets
		{0, 8, 8, 3, true, []byte{0, 26, 31, 4, 0, 0, 0, 27, 30, 4, 0, 0, 4, 0, 0, 4, 0, 0}}, // relay merges with a new target
		{0, 8, 8, 4, false, []byte{0, 0, 63, 2, 9, 54, 3, 5, 0, 4, 0, 0, 0, 63, 0, 4, 0, 0}},
		{1, 6, 5, 3, false, []byte{0, 0, 3, 0, 1, 29, 2, 5, 24, 4, 0, 0, 0, 7, 10, 4, 0, 0}},
		{1, 4, 4, 4, true, []byte{0, 0, 10, 1, 0, 2, 0, 0, 8, 4, 0, 0, 0, 15, 5, 4, 0, 0}},
		{1, 2, 2, 2, false, []byte{0, 0, 3, 1, 3, 0, 4, 0, 0, 2, 1, 2, 4, 0, 0}},
		{2, 8, 1, 1, true, []byte{0, 0, 4, 1, 7, 3, 4, 0, 0, 3, 2, 0, 4, 0, 0}},
		{2, 5, 1, 4, false, []byte{0, 0, 2, 0, 0, 3, 2, 4, 1, 4, 0, 0}},
		{0, 1, 6, 2, true, []byte{0, 0, 5, 2, 5, 0, 4, 0, 0, 0, 2, 4, 4, 0, 0}},
	} {
		f.Add(seed.kind, seed.w, seed.h, seed.hops, seed.strict, seed.ops)
	}
	f.Fuzz(func(t *testing.T, kind, w, h, hops uint8, strict bool, ops []byte) {
		tp, err := topo.New(topo.Kind(kind%3), int(w%9), int(h%9))
		if err != nil {
			return
		}
		rf := topo.Routing(tp)
		k := 1 + int((hops+3)%4) // hops 1-4 as given, other values wrap
		fab := NewFabric(rf, k, strict, nil)
		bus := obs.NewBus(obs.Meta{})
		var rec obs.Recorder
		bus.Attach(&rec)
		fab.SetBus(bus)
		ref := newDenseFabric(rf, k, strict)
		nodes := tp.NumNodes()
		// step runs one cycle after op number op (-1 while draining).
		step := func(op int) {
			fab.Step()
			ref.Step()
			if err := compareFabrics(fab, ref, rec.Slice(0, rec.Mark())); err != nil {
				t.Fatalf("%s %d-hop strict=%v, op %d: %v", tp, k, strict, op, err)
			}
			rec.Reset()
			ref.events = ref.events[:0]
		}
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := mesh.NodeID(int(ops[i+1])%nodes), mesh.NodeID(int(ops[i+2])%nodes)
			switch ops[i] % 5 {
			case 0, 1:
				fab.EmitSource(a, b)
				ref.EmitSource(a, b)
			case 2:
				fab.EmitLocal(a, b)
				ref.EmitLocal(a, b)
			case 3:
				fab.HoldLocal(a)
				ref.HoldLocal(a)
			default:
				step(i / 3)
			}
		}
		for i := 0; i < k+2; i++ {
			step(-1)
		}
		if fab.NeedsStep() {
			t.Fatalf("%s %d-hop strict=%v: still needs stepping %d quiet cycles after the stream", tp, k, strict, k+2)
		}
	})
}

// TestFabricStepAllocFree pins the allocation-free punch path on a
// 64x64 mesh: with every node emitting a source punch and an NI punch
// each cycle, EmitSource, EmitLocal and Step make no allocation once
// warmed up.
func TestFabricStepAllocFree(t *testing.T) {
	const side = 64
	f := NewFabric(meshRF(side, side), 3, false, nil)
	rng := rand.New(rand.NewSource(1))
	dsts := make([]mesh.NodeID, 2*side*side)
	for i := range dsts {
		dsts[i] = mesh.NodeID(rng.Intn(side * side))
	}
	cycle := func() {
		for n := 0; n < side*side; n++ {
			f.EmitSource(mesh.NodeID(n), dsts[2*n])
			f.EmitLocal(mesh.NodeID(n), dsts[2*n+1])
		}
		f.Step()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("dense 64x64 punch cycle: %v allocs/op, want 0", avg)
	}
	if f.Stats().RelayedTargets == 0 {
		t.Fatal("no relays: the cycle does not exercise delivery")
	}
}
