package workset

import "testing"

func TestBitAndWalks(t *testing.T) {
	a := make([]uint64, 3)
	b := make([]uint64, 3)
	for _, i := range []int{0, 63, 64, 130} {
		Of(a, i).Set()
	}
	for _, i := range []int{63, 100, 130, 191} {
		Of(b, i).Put(true)
	}
	Of(b, 100).Clear()
	Bit{}.Set() // no summary: a no-op
	var got, both []int
	for i := Next(a, 0); i != -1; i = Next(a, i+1) {
		got = append(got, i)
	}
	for i := NextAnd(a, b, 0); i != -1; i = NextAnd(a, b, i+1) {
		both = append(both, i)
	}
	if len(got) != 4 || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 130 {
		t.Errorf("Next walk = %v", got)
	}
	if len(both) != 2 || both[0] != 63 || both[1] != 130 || Has(b, 100) || !Has(b, 191) {
		t.Errorf("NextAnd walk = %v, b = %x", both, b)
	}
}
