// Command dbgc compresses and decompresses LiDAR point cloud frames with
// the DBGC scheme.
//
// Usage:
//
//	dbgc compress   [-q 0.02] [-groups 6] [-ctx=false] input.bin output.dbgc
//	dbgc decompress input.dbgc output.bin
//	dbgc info       input.dbgc
//	dbgc simulate   [-scene kitti-city] [-seed 1] output.bin
//	dbgc pack       [-q 0.02] [-intensity] [-ctx=false] frames... output.dbgs
//	dbgc unpack     [-partial] [-max-points n] [-mem-budget bytes] input.dbgs output-dir
//
// compress and pack code each sparse angular stream by the cheapest of its
// paper coder, plain arithmetic coding and the context coder (container v5);
// -ctx=false keeps the paper's §3.5 coders (Deflate on θ, arithmetic coding
// on φ, r and the lengths; container v2).
//
// Frames use the KITTI .bin layout (little-endian float32 records of
// x, y, z, intensity) or PLY when the file name ends in .ply.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dbgc"
	"dbgc/internal/core"
	"dbgc/internal/lidar"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = runCompress(os.Args[2:])
	case "decompress":
		err = runDecompress(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "pack":
		err = runPack(os.Args[2:])
	case "unpack":
		err = runUnpack(os.Args[2:])
	case "view":
		err = runView(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbgc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dbgc compress   [-q meters] [-groups n] [-exact] [-ctx=false] input.bin output.dbgc
  dbgc decompress input.dbgc output.bin
  dbgc info       input.dbgc
  dbgc simulate   [-scene kind] [-seed n] output.bin
  dbgc pack       [-q meters] [-fps n] [-intensity] [-ctx=false] frames... output.dbgs
  dbgc unpack     [-max-points n] [-mem-budget bytes] [-partial] input.dbgs output-dir
  dbgc view       [-extent m] [-size WxH] frame.bin|frame.ply|frame.dbgc
  dbgc query      -box x0,y0,z0,x1,y1,z1 frame.dbgc output.bin`)
	os.Exit(2)
}

func runCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	q := fs.Float64("q", 0.02, "per-dimension error bound in meters")
	groups := fs.Int("groups", 6, "radial point groups")
	exact := fs.Bool("exact", false, "use exact cell-based clustering")
	ctx := fs.Bool("ctx", true, "code each sparse angular stream by the cheapest of its paper coder, arithmetic coding and the context coder (v5 container); -ctx=false keeps the paper's §3.5 coders (v2)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	pc, err := readCloud(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := dbgc.DefaultOptions(*q)
	opts.Groups = *groups
	opts.ExactClustering = *exact
	opts.ContextModel = *ctx
	data, stats, err := dbgc.Compress(pc, opts)
	if err != nil {
		return err
	}
	if err := os.WriteFile(fs.Arg(1), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("%d points -> %d bytes (ratio %.2f)\n", len(pc), len(data), stats.CompressionRatio())
	fmt.Printf("dense %d, sparse %d (%d polylines), outliers %d\n",
		stats.NumDense, stats.NumSparse, stats.NumLines, stats.NumOutliers)
	return nil
}

func runDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	pc, err := dbgc.Decompress(data)
	if err != nil {
		return err
	}
	if err := writeCloud(fs.Arg(1), pc); err != nil {
		return err
	}
	fmt.Printf("decoded %d points\n", len(pc))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	box := fs.String("box", "", "query box as x0,y0,z0,x1,y1,z1 (meters, sensor frame)")
	fs.Parse(args)
	if fs.NArg() != 2 || *box == "" {
		usage()
	}
	var b dbgc.AABB
	if _, err := fmt.Sscanf(*box, "%f,%f,%f,%f,%f,%f",
		&b.Min.X, &b.Min.Y, &b.Min.Z, &b.Max.X, &b.Max.Y, &b.Max.Z); err != nil {
		return fmt.Errorf("bad -box %q: %w", *box, err)
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	pc, err := dbgc.DecompressRegion(data, b)
	if err != nil {
		return err
	}
	if err := writeCloud(fs.Arg(1), pc); err != nil {
		return err
	}
	fmt.Printf("region query returned %d points\n", len(pc))
	return nil
}

func runView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ExitOnError)
	extent := fs.Float64("extent", 0, "half-width in meters (0 = fit)")
	size := fs.String("size", "100x40", "character grid WxH")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	var cols, rows int
	if _, err := fmt.Sscanf(*size, "%dx%d", &cols, &rows); err != nil || cols < 2 || rows < 2 {
		return fmt.Errorf("bad -size %q", *size)
	}
	path := fs.Arg(0)
	var pc dbgc.PointCloud
	var err error
	if strings.HasSuffix(path, ".dbgc") {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		pc, err = dbgc.Decompress(data)
	} else {
		pc, err = readCloud(path)
	}
	if err != nil {
		return err
	}
	fmt.Print(lidar.RenderTopDown(pc, *extent, cols, rows))
	fmt.Printf("%d points, sensor at center, +x up\n", len(pc))
	return nil
}

// readCloud loads a frame, choosing the format by file extension
// (.ply or KITTI .bin).
func readCloud(path string) (dbgc.PointCloud, error) {
	if strings.HasSuffix(path, ".ply") {
		return lidar.ReadPLYFile(path)
	}
	return lidar.ReadBinFile(path)
}

// writeCloud stores a frame, choosing the format by file extension.
func writeCloud(path string, pc dbgc.PointCloud) error {
	if strings.HasSuffix(path, ".ply") {
		return lidar.WritePLYFile(path, pc)
	}
	return lidar.WriteBinFile(path, pc)
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	layout, err := core.Inspect(data)
	if err != nil {
		return err
	}
	pc, err := dbgc.Decompress(data)
	if err != nil {
		return err
	}
	dialect := ""
	if layout.ContextModeled {
		dialect = ", per-stream coder choice (context dialect)"
	}
	fmt.Printf("%s: %d bytes, %d points, ratio %.2f (format v%d%s)\n",
		fs.Arg(0), len(data), len(pc), float64(len(pc)*12)/float64(len(data)), layout.Version, dialect)
	fmt.Printf("  dense section:   %8d bytes (%d points, octree)\n", layout.BytesDense, layout.PointsDense)
	fmt.Printf("  sparse section:  %8d bytes (%d radial groups, polylines)\n", layout.BytesSparse, layout.Groups)
	fmt.Printf("  outlier section: %8d bytes (%d points, mode %d)\n", layout.BytesOutlier, layout.PointsOutlier, layout.OutlierMode)
	return nil
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	sceneKind := fs.String("scene", string(lidar.City), "scene preset")
	seed := fs.Int64("seed", 1, "layout and capture seed")
	sensor := fs.String("sensor", "hdl64e", "sensor model: hdl64e, hdl32e, vlp16")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	scene, err := lidar.NewScene(lidar.SceneKind(*sceneKind), *seed)
	if err != nil {
		return err
	}
	var cfg lidar.SensorConfig
	switch *sensor {
	case "hdl64e":
		cfg = lidar.HDL64E()
	case "hdl32e":
		cfg = lidar.HDL32E()
	case "vlp16":
		cfg = lidar.VLP16()
	default:
		return fmt.Errorf("unknown sensor %q", *sensor)
	}
	pc := cfg.Simulate(scene, *seed)
	if err := writeCloud(fs.Arg(0), pc); err != nil {
		return err
	}
	fmt.Printf("simulated %d points (%s, %s, seed %d)\n", len(pc), *sceneKind, *sensor, *seed)
	return nil
}
