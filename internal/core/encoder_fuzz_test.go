package core

import (
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/topo"
)

// FuzzEncodeChannel runs the punch encoder on random fabrics: any kind,
// any shape up to 8x8 that topo.New accepts, any router (in range or
// not), any direction (Local and out-of-range values included) and
// 1-4 hops. It must never panic, must return nil exactly when the
// channel has no link, must number its codes densely, every code must
// round-trip through SetFor(CodeForSet(set)), and the width must be
// ceil(log2(#codes+1)) — room for every code plus idle.
func FuzzEncodeChannel(f *testing.F) {
	for _, seed := range []struct {
		kind, w, h uint8
		router     int16
		dir, hops  uint8
	}{
		{0, 8, 8, 27, uint8(mesh.East), 3},  // Table 1
		{0, 8, 8, 27, uint8(mesh.North), 4}, // Y channel, 4-hop
		{0, 8, 8, 7, uint8(mesh.East), 3},   // east edge: no channel
		{0, 8, 8, 27, uint8(mesh.Local), 3}, // Local is not a channel
		{0, 5, 3, 64, uint8(mesh.West), 2},  // router off the fabric
		{0, 1, 6, 2, uint8(mesh.South), 1},  // single-column mesh
		{1, 4, 4, 0, uint8(mesh.West), 3},   // torus wrap channel
		{1, 2, 3, 5, uint8(mesh.North), 2},  // minimal torus
		{2, 8, 1, 7, uint8(mesh.East), 4},   // ring wrap channel
		{2, 5, 1, 2, uint8(mesh.North), 1},  // ring has no Y links
		{0, 0, 4, 0, uint8(mesh.East), 1},   // rejected shape
		{2, 8, 2, 0, uint8(mesh.East), 1},   // rejected ring shape
	} {
		f.Add(seed.kind, seed.w, seed.h, seed.router, seed.dir, seed.hops)
	}
	f.Fuzz(func(t *testing.T, kind, w, h uint8, router int16, dir, hops uint8) {
		tp, err := topo.New(topo.Kind(kind%3), int(w%9), int(h%9))
		if err != nil {
			return
		}
		rf := topo.Routing(tp)
		// hops 1-4 as given, other values wrap
		r, d, k := mesh.NodeID(router), mesh.Direction(dir%6), 1+int((hops+3)%4)
		enc := EncodeChannel(rf, r, d, k)
		if noLink := d == mesh.Local || tp.Neighbor(r, d) == mesh.Invalid; noLink != (enc == nil) {
			t.Fatalf("%s r%d %v: EncodeChannel nil = %v, but channel missing = %v", tp, r, d, enc == nil, noLink)
		}
		if enc == nil {
			return
		}
		for i, c := range enc.Codes {
			if c.Code != i {
				t.Fatalf("%s r%d %v %d-hop: code %d at index %d", tp, r, d, k, c.Code, i)
			}
			code := enc.CodeForSet(c.Set)
			if code != c.Code+1 || enc.SetFor(code).Key() != c.Set.Key() {
				t.Fatalf("%s r%d %v %d-hop: set %v encodes to %d and decodes to %v",
					tp, r, d, k, c.Set, code, enc.SetFor(code))
			}
		}
		width := 0
		for 1<<width < len(enc.Codes)+1 {
			width++
		}
		if enc.WidthBits != width {
			t.Fatalf("%s r%d %v %d-hop: %d codes in %d bits, want %d", tp, r, d, k, len(enc.Codes), enc.WidthBits, width)
		}
	})
}
