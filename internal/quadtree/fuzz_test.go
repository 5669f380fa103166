package quadtree

import (
	"testing"

	"dbgc/internal/declimits"
)

// FuzzDecode hammers the quadtree decoder with mutated streams under a
// small decode budget; it must never panic or allocate past the budget.
func FuzzDecode(f *testing.F) {
	pts := []Point2{{X: 1, Y: 2}, {X: -3, Y: 0.5}, {X: 4, Y: -1}, {X: 0.1, Y: 0.2}}
	enc, err := Encode(pts, 0.02)
	if err != nil {
		f.Fatal(err)
	}
	spread, err := Encode(randomPoints(300, 160, 5), 0.02)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Data)
	f.Add(enc.Data[:len(enc.Data)/2])
	f.Add(spread.Data)
	f.Add(spread.Data[:len(spread.Data)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lim := declimits.Limits{
			MaxPoints: 1 << 16, MaxNodes: 1 << 20, MemBudget: 32 << 20,
		}
		_, _ = DecodeLimited(data, declimits.New(lim))
	})
}
