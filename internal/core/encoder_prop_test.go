package core

import (
	"math/rand"
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// allChannels enumerates every punch channel of the fabric at the given
// hop count.
func allChannels(rf *topo.RoutingFunction, hops int) []*ChannelEncoding {
	var out []*ChannelEncoding
	for r := mesh.NodeID(0); rf.Topology().Contains(r); r++ {
		for _, d := range mesh.LinkDirections {
			if e := EncodeChannel(rf, r, d, hops); e != nil {
				out = append(out, e)
			}
		}
	}
	return out
}

// TestEncoderRoundTripEveryCode is the exhaustive round-trip property
// behind Table 1: for every channel of the 8x8 mesh at 3-hop punch
// (the 5-bit X / 2-bit Y configuration), every wire code decodes to a
// target set that encodes back to the same code, sets are canonical
// (sorted, fully reduced), codes are dense and within the advertised
// channel width, and code 0 stays reserved for idle.
func TestEncoderRoundTripEveryCode(t *testing.T) {
	rf := meshRF(8, 8)
	for _, e := range allChannels(rf, 3) {
		if len(e.Codes) >= (1 << e.WidthBits) {
			t.Fatalf("r%d %v: %d codes overflow %d-bit channel (idle needs a state)",
				e.Router, e.Direction, len(e.Codes), e.WidthBits)
		}
		if e.SetFor(0) != nil || e.SetFor(len(e.Codes)+1) != nil {
			t.Fatalf("r%d %v: out-of-range codes must decode to nil", e.Router, e.Direction)
		}
		for code := 1; code <= len(e.Codes); code++ {
			set := e.SetFor(code)
			if len(set) == 0 {
				t.Fatalf("r%d %v: code %d decodes to an empty set", e.Router, e.Direction, code)
			}
			// Canonical: already reduced, sorted, duplicate-free.
			if red := reduceTargets(rf, e.Router, set); red.Key() != set.Key() {
				t.Fatalf("r%d %v: code %d set %v is not reduced (-> %v)",
					e.Router, e.Direction, code, set, red)
			}
			if got := e.CodeForSet(set); got != code {
				t.Fatalf("r%d %v: CodeForSet(SetFor(%d)) = %d", e.Router, e.Direction, code, got)
			}
		}
	}
}

// TestEncoderEncodesEveryEmitterChoice is the completeness property the
// fabric relies on: any union of at most one target per emitter — every
// combination the hardware arbitration can produce in one cycle — must
// be in the channel's code book, and must decode to exactly its
// reduction. Exhaustive enumeration is exponential in emitters, so a
// seeded random sample of choices per channel stands in.
func TestEncoderEncodesEveryEmitterChoice(t *testing.T) {
	rf := meshRF(8, 8)
	rng := rand.New(rand.NewSource(31))
	for _, e := range allChannels(rf, 3) {
		for trial := 0; trial < 64; trial++ {
			var union []mesh.NodeID
			for _, em := range e.Emitters {
				if rng.Intn(2) == 0 {
					union = append(union, em.Targets[rng.Intn(len(em.Targets))])
				}
			}
			if len(union) == 0 {
				continue
			}
			code := e.CodeForSet(union)
			if code < 1 {
				t.Fatalf("r%d %v: legal emitter union %v not encodable",
					e.Router, e.Direction, union)
			}
			want := reduceTargets(rf, e.Router, union)
			if got := e.SetFor(code); got.Key() != want.Key() {
				t.Fatalf("r%d %v: union %v encoded to %v, want %v",
					e.Router, e.Direction, union, got, want)
			}
		}
	}
}

// TestReduceMergeLossless is the algebraic property EncodeChannel's
// incremental enumeration and the fabric's cycle-merging both depend
// on: reduction keeps the maximal elements of the "lies on the XY path
// to" order, so reducing early loses nothing —
// reduce(A ∪ B) == reduce(reduce(A) ∪ reduce(B)) — and reduction is
// idempotent.
func TestReduceMergeLossless(t *testing.T) {
	rf := meshRF(8, 8)
	rng := rand.New(rand.NewSource(37))
	randomTargets := func(e *ChannelEncoding) []mesh.NodeID {
		var u []mesh.NodeID
		for _, em := range e.Emitters {
			for _, tgt := range em.Targets {
				if rng.Intn(3) == 0 {
					u = append(u, tgt)
				}
			}
		}
		return u
	}
	for _, e := range allChannels(rf, 3) {
		for trial := 0; trial < 32; trial++ {
			a, b := randomTargets(e), randomTargets(e)
			direct := reduceTargets(rf, e.Router, append(append([]mesh.NodeID{}, a...), b...))
			ra, rb := reduceTargets(rf, e.Router, a), reduceTargets(rf, e.Router, b)
			staged := reduceTargets(rf, e.Router, append(append([]mesh.NodeID{}, ra...), rb...))
			if direct.Key() != staged.Key() {
				t.Fatalf("r%d %v: merge not lossless: reduce(A∪B)=%v but reduce(rA∪rB)=%v (A=%v B=%v)",
					e.Router, e.Direction, direct, staged, a, b)
			}
			if again := reduceTargets(rf, e.Router, direct); again.Key() != direct.Key() {
				t.Fatalf("r%d %v: reduction not idempotent: %v -> %v", e.Router, e.Direction, direct, again)
			}
		}
	}
}
