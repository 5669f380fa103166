package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dbgc/internal/lidar"
)

// TestCompressGolden pins the compressed bytes of two full frames. The
// hashes were recorded before the clustering window sums were rewritten
// (PR 12) and say that a change to the encoder kept every label and every
// coded symbol, not only the size. A change that means to alter the bytes
// updates them here.
func TestCompressGolden(t *testing.T) {
	golden := []struct {
		kind  lidar.SceneKind
		exact bool
		sha   string
	}{
		{lidar.City, false, "6c12e16e5deae9a35106072d913cdd357ee7b6a1ef75252bb4a862acfbef2358"},
		{lidar.City, true, "83f4f347e7fbc2bf798dc20341a6c0e98ccf1973bf4432bad4a28f27e39c5b4a"},
		{lidar.Road, false, "1756414da3194929340a58e22627e153b97671879bb15d42aeae82af194cd201"},
		{lidar.Road, true, "fb889cb8e5e3da8b79f0526d87fcf0a4f64f47cfad68cb6e452bea6d54a254ce"},
	}
	for _, g := range golden {
		pc := frame(t, g.kind) // layout 1, sensor seed 1
		opts := DefaultOptions(0.02)
		opts.ExactClustering = g.exact
		for _, parallel := range []bool{false, true} {
			opts.Parallel = parallel
			out, _, err := Compress(pc, opts)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != g.sha {
				t.Errorf("%s exact=%v parallel=%v: %d bytes, sha256 %s, want %s",
					g.kind, g.exact, parallel, len(out), got, g.sha)
			}
		}
	}
}
