package router_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"powerpunch/internal/config"
	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/pg"
	"powerpunch/internal/router"
)

// TestRingsMatchSliceFIFO is the differential test of the VC rings.
// It drives random pushes and pops through routers whose data and
// control VCs are 1 to 4 flits deep, so every ring wraps many times,
// against one plain slice FIFO per VC. After every step it compares
// VCOccupancy; ForEachVC's Front, FrontAge and Occupancy; the
// ResidentHeads order; and the EmitPunches order (VC key first, then
// FIFO order within a VC).
func TestRingsMatchSliceFIFO(t *testing.T) {
	type entry struct {
		f   *flit.Flit
		arr int64
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		cfg := testCfg()
		cfg.DataVCDepth, cfg.CtrlVCDepth = 1+rng.Intn(4), 1+rng.Intn(4)
		r := newRouter(t, 5, &cfg)
		numVCs := r.NumVCs()
		model := make([][]entry, mesh.NumPorts*numVCs)
		var heads []*flit.Packet
		var wantDst, gotDst punchRecorder
		for now := int64(0); now < 4000; now++ {
			key := rng.Intn(len(model))
			d, vi := mesh.Direction(key/numVCs), key%numVCs
			q := &model[key]
			if depth := cfg.VCDepth(vi % cfg.VCsPerVN()); len(*q) < depth && rng.Intn(5) < 3 {
				p := &flit.Packet{ID: uint64(now), Dst: mesh.NodeID(rng.Intn(16))}
				f := &flit.Flit{Packet: p, Type: flit.Type(rng.Intn(4))}
				r.ReceiveFlit(d, vi, f, now)
				*q = append(*q, entry{f, now})
			} else if len(*q) > 0 {
				if got := router.PopFront(r, d, vi); got != (*q)[0].f {
					t.Fatalf("trial %d cycle %d: key %d popped %v, want %v", trial, now, key, got, (*q)[0].f)
				}
				*q = (*q)[1:]
			}

			heads, wantDst = heads[:0], wantDst[:0]
			for k, q := range model {
				if got := r.VCOccupancy(mesh.Direction(k/numVCs), k%numVCs); got != len(q) {
					t.Fatalf("trial %d cycle %d: key %d VCOccupancy %d, want %d", trial, now, k, got, len(q))
				}
				for _, e := range q {
					if e.f.Type.IsHead() {
						heads = append(heads, e.f.Packet)
						wantDst = append(wantDst, e.f.Packet.Dst)
					}
				}
			}
			r.ForEachVC(now, func(v router.VCView) {
				q := model[v.Key]
				var front *flit.Flit
				var age int64
				if len(q) > 0 {
					front, age = q[0].f, now-q[0].arr
				}
				if v.Occupancy != len(q) || v.Front != front || v.FrontAge != age {
					t.Fatalf("trial %d cycle %d: key %d view occupancy %d front %v age %d, want %d %v %d",
						trial, now, v.Key, v.Occupancy, v.Front, v.FrontAge, len(q), front, age)
				}
			})
			i := 0
			r.ResidentHeads(func(p *flit.Packet) {
				if i >= len(heads) || p != heads[i] {
					t.Fatalf("trial %d cycle %d: resident head %d is %v, want %v", trial, now, i, p, heads)
				}
				i++
			})
			if i != len(heads) {
				t.Fatalf("trial %d cycle %d: %d resident heads, want %d", trial, now, i, len(heads))
			}
			gotDst = gotDst[:0]
			r.EmitPunches(&gotDst)
			if !slices.Equal(gotDst, wantDst) {
				t.Fatalf("trial %d cycle %d: punches toward %v, want %v", trial, now, gotDst, wantDst)
			}
		}
	}
}

var routerSink *router.Router

// TestRouterFootprint keeps a router small: one router.New under the
// default geometry (45 VCs) allocates at most 8 KiB, and a VC's hot
// record is at most 48 bytes. On a 64x64 fabric the per-VC state is
// the largest share of peak RSS.
func TestRouterFootprint(t *testing.T) {
	if router.VCRecordSize > 48 {
		t.Errorf("VC record is %d bytes, want <= 48", router.VCRecordSize)
	}
	cfg := config.Default()
	rf := meshRF(t, &cfg)
	ctrl := pg.New(false, 2, 1, 0)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			routerSink = router.New(27, rf, &cfg, ctrl, nil)
		}
	})
	if got := res.AllocedBytesPerOp(); got > 8192 {
		t.Errorf("router.New allocates %d bytes, want <= 8192", got)
	}
}

// TestVCDepthBound: the rings keep positions and counts in one byte, so
// a network with 300-deep VCs is refused with the typed error, and a
// VC at config.MaxVCDepth fills, wraps and drains in order.
func TestVCDepthBound(t *testing.T) {
	for _, mut := range []func(*config.Config){
		func(c *config.Config) { c.DataVCDepth = 300 },
		func(c *config.Config) { c.CtrlVCDepth = 300 },
	} {
		cfg := testCfg()
		mut(&cfg)
		var derr *config.VCDepthError
		if _, err := network.New(cfg); !errors.As(err, &derr) || derr.Depth != 300 {
			t.Errorf("network.New: err %v, want a *config.VCDepthError for depth 300", err)
		}
	}

	cfg := testCfg()
	cfg.DataVCDepth = config.MaxVCDepth
	r := newRouter(t, 5, &cfg)
	p := mkPacket(1, 4, 7, 2*config.MaxVCDepth)
	fs := flit.NewFlits(p)
	next, popped := 0, 0
	for popped < len(fs) {
		for next < len(fs) && r.CanAcceptFlit(mesh.West, 0) {
			r.ReceiveFlit(mesh.West, 0, fs[next], 0)
			next++
		}
		if got := r.VCOccupancy(mesh.West, 0); got != next-popped {
			t.Fatalf("occupancy %d after %d pushes and %d pops", got, next, popped)
		}
		for n := 1 + popped%7; n > 0 && popped < next; n-- {
			if f := router.PopFront(r, mesh.West, 0); f != fs[popped] {
				t.Fatalf("pop %d returned flit %d", popped, f.Seq)
			}
			popped++
		}
	}
}
