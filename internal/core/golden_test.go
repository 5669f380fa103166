package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// laneBox is the region the golden test (and the benchmark) queries.
var laneBox = geom.AABB{Min: geom.Point{X: 5, Y: -5, Z: -3}, Max: geom.Point{X: 25, Y: 5, Z: 3}}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// pointsSHA hashes the float bits of a cloud, in order.
func pointsSHA(pc geom.PointCloud) string {
	buf := make([]byte, 0, 24*len(pc))
	for _, p := range pc {
		for _, f := range [3]float64{p.X, p.Y, p.Z} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return sha(buf)
}

// TestCompressGolden pins, for two full frames under every container
// dialect the codec emits by option (v2 default and exact clustering, v3
// sharded, v5 context-modeled), the compressed bytes, the decoded points
// (serial and parallel decode alike) and the points of a lane-box region
// decode. The byte hashes of the first two option sets were recorded before
// the clustering window sums were rewritten (PR 12), the rest before the
// arithmetic coder and the decoders' memory handling were (PR 13); they say
// that a change kept every label, every coded symbol and every decoded
// float, not only the sizes. A change that means to alter them updates them
// here.
func TestCompressGolden(t *testing.T) {
	// Exact clustering labels a few points differently, so it decodes to
	// other points; the sharded and context-modeled dialects code the same
	// symbols as the default, so they decode to the same ones.
	const (
		cityPts  = "eddd57313485ff508721cc91e400b7d19d8184979e11b059876225d714e0d2a1"
		cityLane = "80891f6c185194decce38070457a355764d0a4be2946cea349b811b0590ed186"
		roadPts  = "cba9c9dd8771228d4481e2f03226d42863a8083e02d22949289ff4a545345625"
		roadLane = "8d2c71de5cb42628fae9d34226b9503d006c5b4b95a95c918ffbc199063c2373"
	)
	golden := []struct {
		kind                lidar.SceneKind
		name                string
		set                 func(*Options)
		bytes, pts, lanePts string
	}{
		{lidar.City, "default", func(*Options) {},
			"6c12e16e5deae9a35106072d913cdd357ee7b6a1ef75252bb4a862acfbef2358", cityPts, cityLane},
		{lidar.City, "exact", func(o *Options) { o.ExactClustering = true },
			"83f4f347e7fbc2bf798dc20341a6c0e98ccf1973bf4432bad4a28f27e39c5b4a",
			"3c3005f3e366b2e3f4d0f50a12a6048a318e19dca934e61ae0a604eace2f4a44",
			"6d5b0ce04288c06ca673b54911620f1dd670f6c39950d0e8bf7f77eae0dd065d"},
		{lidar.City, "shards8", func(o *Options) { o.Shards = 8 },
			"2e343f7071b7b188600bdc0738941a28252721dfd3786bbd712903b876973819", cityPts, cityLane},
		{lidar.City, "ctx", func(o *Options) { o.ContextModel = true },
			"d29c52d3475259d1e6dfa8e1c3edb253d7b0ddb6e27a88ea74dd1284994140f3", cityPts, cityLane},
		{lidar.Road, "default", func(*Options) {},
			"1756414da3194929340a58e22627e153b97671879bb15d42aeae82af194cd201", roadPts, roadLane},
		{lidar.Road, "exact", func(o *Options) { o.ExactClustering = true },
			"fb889cb8e5e3da8b79f0526d87fcf0a4f64f47cfad68cb6e452bea6d54a254ce",
			"f31d70b408ec938e7a1033b9417c86271359b97a3b3ade5c66e05f371f525418",
			"c64de1e5249fef80e19e89a4f1aed9505cfea68c3f16c20aaeeb1f896df20740"},
		{lidar.Road, "shards8", func(o *Options) { o.Shards = 8 },
			"8178a5dec31102f1fe00c857cb670aba7223af3d47ef49ffd8a49f758b3860ee", roadPts, roadLane},
		{lidar.Road, "ctx", func(o *Options) { o.ContextModel = true },
			"ba99140cec7b413837b721ed4ed66cc7d7096de0a1f2e96d6dc1ac7c1860b425", roadPts, roadLane},
	}
	for _, g := range golden {
		pc := frame(t, g.kind) // layout 1, sensor seed 1
		opts := DefaultOptions(0.02)
		g.set(&opts)
		var out []byte
		for _, parallel := range []bool{false, true} {
			opts.Parallel = parallel
			var err error
			if out, _, err = Compress(pc, opts); err != nil {
				t.Fatal(err)
			}
			if got := sha(out); got != g.bytes {
				t.Errorf("%s %s parallel=%v: %d bytes, sha256 %s, want %s", g.kind, g.name, parallel, len(out), got, g.bytes)
			}
			back, err := DecompressWith(out, DecompressOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if got := pointsSHA(back); got != g.pts {
				t.Errorf("%s %s parallel=%v: %d decoded points, sha256 %s, want %s", g.kind, g.name, parallel, len(back), got, g.pts)
			}
		}
		lane, err := DecompressRegion(out, laneBox)
		if err != nil {
			t.Fatal(err)
		}
		if got := pointsSHA(lane); got != g.lanePts {
			t.Errorf("%s %s: %d lane-box points, sha256 %s, want %s", g.kind, g.name, len(lane), got, g.lanePts)
		}
	}
}
