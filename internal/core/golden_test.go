package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"testing"

	"dbgc/internal/geom"
	"dbgc/internal/lidar"
	"dbgc/internal/octree"
	"dbgc/internal/par/partest"
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

// The decoded and lane-box points of the city and road frames (layout 1,
// sensor seed 1) under the paper's coders and under the default dialect,
// which TestCompressGolden and TestWidthInvariance both pin. The sharded and
// blockpacked dialects code the same symbols as their base dialect, so they
// decode to the same points. The v5 dialect writes the forward-first order:
// the same points as the paper's coders, in another order
// (TestContextModelEquivalence holds the multisets equal). The city frame's
// lane-box points come out in the paper's order.
const (
	cityPts  = "eddd57313485ff508721cc91e400b7d19d8184979e11b059876225d714e0d2a1"
	cityLane = "80891f6c185194decce38070457a355764d0a4be2946cea349b811b0590ed186"
	roadPts  = "cba9c9dd8771228d4481e2f03226d42863a8083e02d22949289ff4a545345625"
	roadLane = "8d2c71de5cb42628fae9d34226b9503d006c5b4b95a95c918ffbc199063c2373"

	cityCtxPts  = "23874bfc9c20c3b19a1b00f171efc8a7c8f973878f60801dcc07eb3792cf89ac"
	roadCtxPts  = "60b3fff69f389ca1c0415eb45c97d69e341aca63d7938e0418497ffab37f5b80"
	roadCtxLane = "68aa93632c2163343115176a0ed9b3904d82fee877c46562bed86c8621875afa"
)

// TestCompressGolden pins, for two full frames under the container
// dialects the codec emits by option that TestWidthInvariance does not
// already pin (v2 — the paper's §3.5 coders, what ContextModel: false
// spells — with exact clustering, v3 sharded, v4 blockpacked alone and
// sharded, and the octree outlier mode under v2 and v5), the compressed
// bytes, the decoded points and the points of a lane-box region decode, at
// GOMAXPROCS 1 and 4 alike. The point hashes were recorded before the
// clustering window sums, the arithmetic coder and the decoders' memory
// handling were rewritten; they say that a change kept every label, every
// coded symbol and every decoded float, not only the sizes. The byte hashes
// of the exact and shards8 rows were re-recorded when the θ streams' DEFLATE
// encoder went from level 9 to the smaller of Huffman-only and level 5: same
// symbols in the same format, other DEFLATE bytes, and parentBytes — the
// frame's size before that — is what each of those frames may not exceed.
// The blockpack and outlier-octree rows were recorded at commit a8d4062,
// before the dialect → coder decision moved into internal/streamcodec; their
// parentBytes is the size they had then. The outlier-octree+ctx rows were
// re-recorded when ContextModel became the default and again when the v5 sparse stream took the
// forward-first order (polylines cut at x = 0, the pieces ahead of the
// sensor first); their parentBytes is the same options' frame with
// ContextModel off plus the bytes the dialect adds. A change that means to
// alter a hash updates it here.
func TestCompressGolden(t *testing.T) {
	// Exact clustering labels a few points differently, so it decodes to
	// other points, and the octree outlier mode snaps outliers to other
	// cell centres.
	const (
		cityOctPts  = "b2a10cef01bc81785deaaae7a46003d60caf9498f648826f66c2d6e2b1d1f9cd"
		cityOctLane = "dd88e60ae2030188c326cb197f36df8e5c6345cf4d0f850c3cce8a1151c1c9fa"
		roadOctPts  = "e2436a27564d72a5d83298ca7b2875fced5161efc08c1bb204bbdb4e9a4de7ed"
		roadOctLane = "e3d150ae63e7c6d5c9a2706de7a4511dd17ea576ce6e4ded3eea6397248d8e4f"

		cityOctCtxPts  = "362bb1b42badf144ce19d41e822023200babb2bb802fbb721a18b5b2a9ff845e"
		roadOctCtxPts  = "5a9e367fa8270a309e0a5669ee906e892fa7e5d9ee7d9eccb7e5eadab7bb1606"
		roadOctCtxLane = "6bbbdbbf8b13d53e59b4428181bcb7abd778ea8e6b3c7654e5b07983cd30c128"
	)
	blockpack := func(o *Options) { o.BlockPack = true }
	shards8 := func(o *Options) { o.Shards = 8 }
	outlierOctree := func(o *Options) { o.OutlierMode = OutlierOctree }
	both := func(a, b func(*Options)) func(*Options) {
		return func(o *Options) { a(o); b(o) }
	}
	ctx := func(o *Options) { o.ContextModel = true }
	golden := []struct {
		kind                lidar.SceneKind
		name                string
		set                 func(*Options)
		bytes, pts, lanePts string
		parentBytes         int
	}{
		{lidar.City, "exact", func(o *Options) { o.ExactClustering = true },
			"87ee8f4ac56f9ecaecdbcf83da0187c6d52a7be35b14a6379dcfa6b468b07044",
			"3c3005f3e366b2e3f4d0f50a12a6048a318e19dca934e61ae0a604eace2f4a44",
			"6d5b0ce04288c06ca673b54911620f1dd670f6c39950d0e8bf7f77eae0dd065d", 74011},
		{lidar.City, "shards8", shards8,
			"9eb3f1f029477e7147542ff4b93c2f4e47da7090c88c22cef996bc4a99161b15", cityPts, cityLane, 72680},
		{lidar.City, "blockpack", blockpack,
			"8fd3cec5b5d599e7ea63151d6cea888a0229b8489d28750eeb6a0f088a0af360", cityPts, cityLane, 106339},
		{lidar.City, "blockpack+shards8", both(blockpack, shards8),
			"468da3ebab4ed2b8782ad094ca7cae3468ef2c826d14619c8bb407d93de89705", cityPts, cityLane, 106413},
		{lidar.City, "outlier-octree", outlierOctree,
			"be51c89af7553e8e1306e1fde373798962b6fbebb289bff8cf81918a6481f864", cityOctPts, cityOctLane, 72201},
		{lidar.City, "outlier-octree+ctx", both(outlierOctree, ctx),
			"ce0cc77d3acb2d54e7c0538f3b1769af2f34a78130ed341aff61d67dcf7180d9", cityOctCtxPts, cityOctLane, 72201 + 9},
		{lidar.Road, "exact", func(o *Options) { o.ExactClustering = true },
			"e5aa5cc418292f75abbdfff15aecb628f1f709e1b3a75f33befaf77c22b591d7",
			"f31d70b408ec938e7a1033b9417c86271359b97a3b3ade5c66e05f371f525418",
			"c64de1e5249fef80e19e89a4f1aed9505cfea68c3f16c20aaeeb1f896df20740", 83998},
		{lidar.Road, "shards8", shards8,
			"c4fd4be204a0e43c2776e4cebfde40af7e3e2f4ab86f59b489e0beb72c1e7465", roadPts, roadLane, 82921},
		{lidar.Road, "blockpack", blockpack,
			"387bb006868625dd51402417084bd807d77ffaa08a3aa353a7229e3ec92168c4", roadPts, roadLane, 122744},
		{lidar.Road, "blockpack+shards8", both(blockpack, shards8),
			"6bbbdbdae2b63df0910dc73692fa3650842a226df1778822bfbbea5b5351279c", roadPts, roadLane, 122677},
		{lidar.Road, "outlier-octree", outlierOctree,
			"acc0a1a32a8a2b927377ea1f4db4b094e98c4e8aba473a20fdd92370030f6792", roadOctPts, roadOctLane, 82884},
		{lidar.Road, "outlier-octree+ctx", both(outlierOctree, ctx),
			"db92d7de4db2e09bc96ad5b5af50a176206033109b10d9c7dabe5fd90804b811", roadOctCtxPts, roadOctCtxLane, 82884 + 9},
	}
	for _, g := range golden {
		pc := frame(t, g.kind) // layout 1, sensor seed 1
		opts := paperOptions(0.02)
		g.set(&opts)
		for _, procs := range []int{1, 4} {
			partest.At(procs, func() {
				out, _, err := Compress(pc, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(out); got != g.bytes {
					t.Errorf("%s %s GOMAXPROCS=%d: %d bytes, sha256 %s, want %s", g.kind, g.name, procs, len(out), got, g.bytes)
				}
				if len(out) > g.parentBytes {
					t.Errorf("%s %s GOMAXPROCS=%d: %d bytes, larger than the %d recorded", g.kind, g.name, procs, len(out), g.parentBytes)
				}
				back, err := Decompress(out)
				if err != nil {
					t.Fatal(err)
				}
				if got := pointsSHA(back); got != g.pts {
					t.Errorf("%s %s GOMAXPROCS=%d: %d decoded points, sha256 %s, want %s", g.kind, g.name, procs, len(back), got, g.pts)
				}
				lane, err := DecompressRegion(out, laneBox)
				if err != nil {
					t.Fatal(err)
				}
				if got := pointsSHA(lane); got != g.lanePts {
					t.Errorf("%s %s GOMAXPROCS=%d: %d lane-box points, sha256 %s, want %s", g.kind, g.name, procs, len(lane), got, g.lanePts)
				}
			})
		}
	}
}

// TestDecodeGoldenVectors decodes frames that earlier encoders wrote,
// checked in under testdata/: the points of the city frame (layout 1,
// sensor seed 1) whose azimuth atan2(y, x)+π lies in [10, 11)·2π/25 — 4972
// points, about half of them dense, 147 polylines, 89 outliers — under
// DefaultOptions(0.02) and with Shards: 8 by the encoder of PR 13 (commit
// ff27d99, level-9 DEFLATE on the θ streams), and with BlockPack and
// with ContextModel by the encoder of PR 22 (commit a8d4062, the last
// before internal/streamcodec). Unlike TestCompressGolden, nothing here depends on
// today's encoder: bytes an earlier release wrote must keep decoding to
// these points.
func TestDecodeGoldenVectors(t *testing.T) {
	const (
		pts     = "0099b9c9ce9f0b51d007431d13b0ed2676c5eaf9acbd4215ed6d7ad54ff64e96"
		lanePts = "86f50a4589931cee3a9b75266b0a423dc0a282b2a37d3112634f94ee0559cec2"
	)
	for _, v := range []struct {
		file    string
		version byte
	}{
		{"testdata/city-sector-default.dbgc", version2},
		{"testdata/city-sector-shards8.dbgc", version3},
		{"testdata/city-sector-blockpack.dbgc", version4},
		{"testdata/city-sector-ctx.dbgc", version5},
	} {
		data, err := os.ReadFile(v.file)
		if err != nil {
			t.Fatal(err)
		}
		if data[4] != v.version {
			t.Errorf("%s: container version %d, want %d", v.file, data[4], v.version)
		}
		for _, procs := range []int{1, 4} {
			partest.At(procs, func() {
				back, err := Decompress(data)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d: %v", v.file, procs, err)
				}
				if got := pointsSHA(back); len(back) != 4972 || got != pts {
					t.Errorf("%s GOMAXPROCS=%d: %d decoded points, sha256 %s, want 4972, %s", v.file, procs, len(back), got, pts)
				}
				lane, err := DecompressRegion(data, laneBox)
				if err != nil {
					t.Fatal(err)
				}
				if got := pointsSHA(lane); len(lane) != 926 || got != lanePts {
					t.Errorf("%s GOMAXPROCS=%d: %d lane-box points, sha256 %s, want 926, %s", v.file, procs, len(lane), got, lanePts)
				}
			})
		}
	}
}

// TestContextOccupancyRefused: testdata/city-ctx-occupancy.dbgc is the
// city frame (layout 1, sensor seed 1) under DefaultOptions(0.02) with its
// dense section replaced by internal/octree's testdata/ctx-occupancy.oct —
// the same points coded by the retired context-modeled occupancy coder
// (method 1), CRC recomputed. The last encoder that had the coder decoded
// it to the default frame's points (cityPts of TestCompressGolden). Now
// both decoders refuse it by octree.ErrContextOccupancy, and
// DecompressPartial names that error on the dense section and still
// returns the sparse and outlier points, pinned by the digest taken then.
func TestContextOccupancyRefused(t *testing.T) {
	const (
		fileSHA      = "d29c52d3475259d1e6dfa8e1c3edb253d7b0ddb6e27a88ea74dd1284994140f3"
		salvagedPts  = "6820c83f0b6c84391717b157eebfd0936ddbcfe05fd59205745514ee2a7bea8c"
		sparsePoints = 47938
		outlierPts   = 1441
	)
	data, err := os.ReadFile("testdata/city-ctx-occupancy.dbgc")
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != fileSHA {
		t.Fatalf("testdata/city-ctx-occupancy.dbgc has sha256 %s, want %s", got, fileSHA)
	}
	if pc, err := Decompress(data); !errors.Is(err, octree.ErrContextOccupancy) || pc != nil {
		t.Errorf("Decompress: %d points, %v; want ErrContextOccupancy", len(pc), err)
	}
	if pc, err := DecompressRegion(data, laneBox); !errors.Is(err, octree.ErrContextOccupancy) || pc != nil {
		t.Errorf("DecompressRegion: %d points, %v; want ErrContextOccupancy", len(pc), err)
	}
	for _, procs := range []int{1, 4} {
		partest.At(procs, func() {
			pc, reports, err := DecompressPartial(data, DecompressOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if r := reports[SectionDense]; !errors.Is(r.Err, octree.ErrContextOccupancy) || r.Points != 0 {
				t.Errorf("GOMAXPROCS=%d: dense section: %d points, %v; want ErrContextOccupancy", procs, r.Points, r.Err)
			}
			if r := reports[SectionSparse]; r.Err != nil || r.Points != sparsePoints {
				t.Errorf("GOMAXPROCS=%d: sparse section: %d points, %v; want %d", procs, r.Points, r.Err, sparsePoints)
			}
			if r := reports[SectionOutlier]; r.Err != nil || r.Points != outlierPts {
				t.Errorf("GOMAXPROCS=%d: outlier section: %d points, %v; want %d", procs, r.Points, r.Err, outlierPts)
			}
			if got := pointsSHA(pc); got != salvagedPts {
				t.Errorf("GOMAXPROCS=%d: %d salvaged points, sha256 %s, want %s", procs, len(pc), got, salvagedPts)
			}
		})
	}
}
