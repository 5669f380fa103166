package sparse

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dbgc/internal/cluster"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// sparseInput is a frame's sparse subset as core.Compress hands it to
// Encode under DefaultOptions(0.02).
type sparseInput struct {
	kind lidar.SceneKind
	pc   geom.PointCloud
	idx  []int32
	opts Options
}

// thetaFrames returns the sparse points of city and road layout 1: what
// the approximate clustering leaves, with core's sparse options less the
// dialect.
func thetaFrames(t testing.TB) []sparseInput {
	return sparseFrames(t, lidar.City, lidar.Road)
}

// sparseFrames is thetaFrames for layout 1 of the given scenes.
func sparseFrames(t testing.TB, kinds ...lidar.SceneKind) []sparseInput {
	t.Helper()
	var out []sparseInput
	for _, kind := range kinds {
		scene, err := lidar.NewScene(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		pc := lidar.HDL64E().Simulate(scene, 1)
		var idx []int32
		for i, dense := range cluster.Approximate(pc, geom.Bounds(pc), cluster.Params{Q: 0.02, K: 10}).Dense {
			if !dense {
				idx = append(idx, int32(i))
			}
		}
		out = append(out, sparseInput{kind, pc, idx, Options{
			Q: 0.02, Groups: 6, UTheta: 2 * math.Pi / 2000, UPhi: (26.8 / 64) * math.Pi / 180,
		}})
	}
	return out
}

// deflateAt is one candidate of the DEFLATE coder coded alone.
func deflateAt(t *testing.T, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeflateNeverLoses: whatever streamcodec's DeflateVarint emits decodes
// to its input and is no longer than Huffman coding alone or LZ77 at level 5
// alone — on every θ stream of city and road layout 1 and on three
// synthetic streams that sit on either side of the choice. A constant run
// is the case Huffman coding cannot take below one bit a value; the LZ77
// candidate must.
func TestDeflateNeverLoses(t *testing.T) {
	const lzLevel = 5 // streamcodec's
	inputs := map[string][]int64{}
	for _, f := range thetaFrames(t) {
		for gi, g := range collectStreams(f.pc, f.idx, f.opts) {
			inputs[fmt.Sprintf("%s/group%d/heads", f.kind, gi)] = g.dThetaHeads
			inputs[fmt.Sprintf("%s/group%d/tails", f.kind, gi)] = g.thetaTails
		}
	}
	constant := make([]int64, 20000)
	period3 := make([]int64, 20000)
	random := make([]int64, 20000)
	rng := rand.New(rand.NewSource(1))
	for i := range constant {
		constant[i] = 3
		period3[i] = int64(i%3) - 1
		random[i] = int64(rng.Intn(256)) - 128
	}
	inputs["constant"], inputs["period3"], inputs["random"] = constant, period3, random

	wins := map[string]int{}
	for name, in := range inputs {
		got := streamcodec.AppendInts(nil, streamcodec.DeflateVarint, in)
		back, err := streamcodec.DecodeInts(nil, streamcodec.DeflateVarint, got, len(in), nil)
		if err != nil || !slices.Equal(back, in) {
			t.Fatalf("%s: does not decode to the input (%v)", name, err)
		}
		raw := varint.AppendInts(nil, in)
		huffman, lz := deflateAt(t, flate.HuffmanOnly, raw), deflateAt(t, lzLevel, raw)
		if len(got) > len(huffman) || len(got) > len(lz) {
			t.Errorf("%s: %d bytes, Huffman-only %d, level %d %d", name, len(got), len(huffman), lzLevel, len(lz))
		}
		if len(lz) < len(huffman) {
			wins["lz"]++
		} else {
			wins["huffman"]++
		}
		// 78 maximal matches at a bit each for length and distance, plus
		// the block's code tables: about 40 bytes against 2500.
		if name == "constant" && len(got)*50 >= len(huffman) {
			t.Errorf("constant run: %d bytes, not under 2%% of Huffman-only's %d", len(got), len(huffman))
		}
	}
	t.Logf("%d streams: Huffman-only smallest or tied on %d, LZ77 on %d", len(inputs), wins["huffman"], wins["lz"])
	if wins["huffman"] == 0 || wins["lz"] == 0 {
		t.Errorf("one side of the choice never occurs: %v", wins)
	}
}
