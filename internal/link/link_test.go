package link

import (
	"testing"
	"testing/quick"

	"powerpunch/internal/workset"
)

func TestPipeDelay(t *testing.T) {
	p := NewPipe[int](2)
	p.Push(7, 10)
	if got := p.PopArrived(11); got != nil {
		t.Fatalf("arrived early: %v", got)
	}
	got := p.PopArrived(12)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("PopArrived(12) = %v", got)
	}
	if !p.Empty() {
		t.Error("pipe should be empty")
	}
}

func TestPipeFIFOOrder(t *testing.T) {
	p := NewPipe[int](1)
	for i := 0; i < 5; i++ {
		p.Push(i, int64(i))
	}
	var got []int
	for now := int64(0); now < 10; now++ {
		got = append(got, p.PopArrived(now)...)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("lost items: %v", got)
	}
}

func TestDrainMatchesPopArrived(t *testing.T) {
	// Property: Drain delivers the same items in the same order as
	// PopArrived for any push pattern.
	f := func(delaysRaw []uint8) bool {
		a, b := NewPipe[int](3), NewPipe[int](3)
		now := int64(0)
		for i, d := range delaysRaw {
			now += int64(d % 4)
			a.Push(i, now)
			b.Push(i, now)
		}
		end := now + 10
		var va, vb []int
		for c := int64(0); c <= end; c++ {
			va = append(va, a.PopArrived(c)...)
			b.Drain(c, func(v int) { vb = append(vb, v) })
		}
		if len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
		return a.Empty() && b.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipePartialDrain(t *testing.T) {
	p := NewPipe[string](1)
	p.Push("a", 0)
	p.Push("b", 5)
	if got := p.PopArrived(1); len(got) != 1 || got[0] != "a" {
		t.Fatalf("PopArrived(1) = %v", got)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if got := p.PopArrived(6); len(got) != 1 || got[0] != "b" {
		t.Fatalf("PopArrived(6) = %v", got)
	}
}

func TestNewPipePanicsOnZeroDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPipe[int](0)
}

func TestDelayAccessor(t *testing.T) {
	if NewPipe[int](3).Delay() != 3 {
		t.Error("Delay accessor")
	}
}

// TestTrackFollowsOccupancy: the occupancy bit is set by Push and
// cleared only by the drain that empties the pipe, whichever drain form
// it is.
func TestTrackFollowsOccupancy(t *testing.T) {
	sum := make([]uint64, 1)
	p := NewPipe[int](2)
	p.Push(1, 0)
	p.Track(workset.Of(sum, 5))
	if sum[0] != 1<<5 {
		t.Fatalf("Track did not write the current occupancy: %x", sum[0])
	}
	p.Push(2, 1)
	if p.Drain(2, func(int) {}); sum[0] != 1<<5 {
		t.Fatalf("bit cleared with an item still in flight: %x", sum[0])
	}
	if p.DrainAppend(3, nil); sum[0] != 0 {
		t.Fatalf("bit left set on an empty pipe: %x", sum[0])
	}
	p.Push(3, 3)
	if p.PopArrived(5); sum[0] != 0 {
		t.Fatalf("PopArrived left the bit set: %x", sum[0])
	}
}
