package polyline

import "testing"

// TestRefWindowCap: hundreds of polylines at one quantized polar angle must
// not blow the reference window past MaxRefLines — the guard that keeps
// step 8 linear on flat-ring scenes.
func TestRefWindowCap(t *testing.T) {
	lines := make([]Line, 500)
	for i := range lines {
		lines[i] = Line{{Theta: int64(i) * 10, Phi: 100, R: int64(i)}}
	}
	lo := RefWindow(lines, 499, 5)
	if 499-lo != MaxRefLines {
		t.Fatalf("window size %d, want cap %d", 499-lo, MaxRefLines)
	}
	cons := slidingConsensus(t, lines, 499, 5)
	if len(cons) == 0 {
		t.Fatal("capped window still has lines; consensus must exist")
	}
	if len(cons) > MaxRefLines {
		t.Fatalf("consensus of single-point lines has %d points, cap is %d", len(cons), MaxRefLines)
	}
}

// TestConsensusLaterLineWins: within the window, a later (φ-closer) line
// replaces earlier consensus points in its span.
func TestConsensusLaterLineWins(t *testing.T) {
	lines := []Line{
		{{Theta: 0, Phi: 10, R: 1}, {Theta: 100, Phi: 10, R: 1}},
		{{Theta: 40, Phi: 11, R: 2}, {Theta: 60, Phi: 11, R: 2}},
		{{Theta: 50, Phi: 12, R: 9}},
	}
	cons := slidingConsensus(t, lines, 2, 5)
	for _, p := range cons {
		if p.Theta >= 40 && p.Theta <= 60 && p.R != 2 {
			t.Fatalf("span [40,60] should come from line 1: %+v", p)
		}
	}
}
