package mesh

import "testing"

func TestOppositeInvolution(t *testing.T) {
	for _, d := range LinkDirections {
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not an involution for %v", d)
		}
		if d.Opposite() == d {
			t.Errorf("Opposite(%v) == %v", d, d)
		}
	}
	if Local.Opposite() != Local {
		t.Error("Opposite(Local) != Local")
	}
}

func TestDirectionStrings(t *testing.T) {
	if North.String() != "N" || South.String() != "S" || East.String() != "E" ||
		West.String() != "W" || Local.String() != "L" {
		t.Error("unexpected direction names")
	}
	if !East.IsX() || !West.IsX() || East.IsY() {
		t.Error("IsX misclassifies")
	}
	if !North.IsY() || !South.IsY() || North.IsX() {
		t.Error("IsY misclassifies")
	}
}
