// Command dbgc-bench regenerates the tables and figures of the paper's
// evaluation (§4) on simulated LiDAR data. Each experiment prints the same
// rows or series the paper reports.
//
// Usage:
//
//	dbgc-bench -exp all            # every experiment
//	dbgc-bench -exp fig9 -frames 3 # one experiment, 3 frames per config
//
// Experiments: fig3, fig9, fig10, fig11, table2, fig12, fig13, cluster,
// throughput, memory, temporal, perf, sweep, pack, ctx, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"dbgc/internal/benchkit"
	"dbgc/internal/lidar"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig3, fig9, fig10, fig11, table2, fig12, fig13, cluster, throughput, memory, temporal, perf, sweep, pack, ctx, all")
	frames := flag.Int("frames", 2, "frames per configuration (the paper uses 1000)")
	quick := flag.Bool("quick", false, "restrict sweeps to fewer error bounds and scenes")
	csvDir := flag.String("csv", "", "also write raw rows as CSV files into this directory")
	jsonPath := flag.String("json", "", "write the perf/sweep experiment result as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	shards := flag.Int("shards", 8, "entropy shard count for the sweep experiment")
	procs := flag.String("gomaxprocs", "1,2,4,8", "comma-separated GOMAXPROCS values for the sweep experiment")
	flag.Parse()
	jsonOut = *jsonPath
	sweepShards = *shards
	var err error
	if sweepProcs, err = parseInts(*procs); err != nil {
		fmt.Fprintf(os.Stderr, "-gomaxprocs: %v\n", err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "csv dir: %v\n", err)
			os.Exit(1)
		}
		csvOut = *csvDir
	}

	runners := map[string]func(int, bool) error{
		"fig3":       runFig3,
		"fig9":       runFig9,
		"fig10":      runFig10,
		"fig11":      runFig11,
		"table2":     runTable2,
		"fig12":      runFig12,
		"fig13":      runFig13,
		"cluster":    runCluster,
		"throughput": runThroughput,
		"memory":     runMemory,
		"temporal":   runTemporal,
		"perf":       runPerf,
		"sweep":      runSweep,
		"pack":       runPack,
		"ctx":        runCtx,
	}
	order := []string{"fig3", "fig9", "fig10", "fig11", "table2", "fig12", "fig13", "cluster", "throughput", "memory", "temporal", "perf", "sweep", "pack", "ctx"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		if err := runners[name](*frames, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			pprof.StopCPUProfile() // os.Exit skips defers; flush the profile
			os.Exit(1)
		}
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func qs(quick bool) []float64 {
	if quick {
		return []float64{0.0025, 0.02}
	}
	return benchkit.ErrorBounds
}

func scenes(quick bool) []lidar.SceneKind {
	if quick {
		return []lidar.SceneKind{lidar.Campus, lidar.City}
	}
	return lidar.AllScenes
}

func runFig3(frames int, quick bool) error {
	header("Figure 3: octree compression ratio and density vs. subset radius (city, q=2cm)")
	radii := []float64{5, 10, 15, 20, 30, 40, 60, 80, 120}
	rows, err := benchkit.Fig3(benchkit.DefaultQ, radii)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %10s %10s %14s\n", "radius", "points", "ratio", "density(/m3)")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%7.0fm %10d %10.2f %14.2f\n", r.Radius, r.Points, r.Ratio, r.Density)
		csvRows = append(csvRows, []string{f64(r.Radius), fmt.Sprint(r.Points), f64(r.Ratio), f64(r.Density)})
	}
	return writeCSV("fig3", []string{"radius_m", "points", "ratio", "density_per_m3"}, csvRows)
}

func runFig9(frames int, quick bool) error {
	header("Figure 9: compression ratio vs. error bound, all codecs, all scenes")
	rows, err := benchkit.Fig9(scenes(quick), qs(quick), frames)
	if err != nil {
		return err
	}
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{string(r.Scene), r.Codec, f64(r.Q), f64(r.Ratio), f64(r.Mbps)})
	}
	if err := writeCSV("fig9", []string{"scene", "codec", "q_m", "ratio", "mbps_at_10fps"}, csvRows); err != nil {
		return err
	}
	// Group output per scene, codecs as columns of ratios per q.
	byScene := map[lidar.SceneKind][]benchkit.Fig9Row{}
	var order []lidar.SceneKind
	for _, r := range rows {
		if _, ok := byScene[r.Scene]; !ok {
			order = append(order, r.Scene)
		}
		byScene[r.Scene] = append(byScene[r.Scene], r)
	}
	for _, scene := range order {
		fmt.Printf("\n-- %s --\n", scene)
		fmt.Printf("%10s", "q(cm)")
		printed := map[string]bool{}
		var codecs []string
		for _, r := range byScene[scene] {
			if !printed[r.Codec] {
				printed[r.Codec] = true
				codecs = append(codecs, r.Codec)
				fmt.Printf(" %10s", r.Codec)
			}
		}
		fmt.Println()
		for _, q := range qs(quick) {
			fmt.Printf("%10.3f", q*100)
			for _, c := range codecs {
				for _, r := range byScene[scene] {
					if r.Codec == c && r.Q == q {
						fmt.Printf(" %10.2f", r.Ratio)
					}
				}
			}
			fmt.Println()
		}
	}
	return nil
}

func runFig10(frames int, quick bool) error {
	header("Figure 10: ratio vs. forced octree percentage (city, q=2cm)")
	fractions := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	rows, clustered, err := benchkit.Fig10(benchkit.DefaultQ, fractions)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %10s\n", "octree%", "ratio")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%9.0f%% %10.2f\n", r.OctreeFraction*100, r.Ratio)
		csvRows = append(csvRows, []string{f64(r.OctreeFraction), f64(r.Ratio)})
	}
	csvRows = append(csvRows, []string{"clustered", f64(clustered)})
	fmt.Printf("density-based clustering split: ratio %.2f\n", clustered)
	return writeCSV("fig10", []string{"octree_fraction", "ratio"}, csvRows)
}

func runFig11(frames int, quick bool) error {
	header("Figure 11: ablations (-Radial, -Group, -Conversion) on campus")
	rows, err := benchkit.Fig11(qs(quick), frames)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %10s %12s\n", "variant", "q(cm)", "ratio", "rel. to full")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%-12s %8.3f %10.2f %11.0f%%\n", r.Variant, r.Q*100, r.Ratio, r.RelativeToFull*100)
		csvRows = append(csvRows, []string{r.Variant, f64(r.Q), f64(r.Ratio), f64(r.RelativeToFull)})
	}
	return writeCSV("fig11", []string{"variant", "q_m", "ratio", "relative_to_full"}, csvRows)
}

func runTable2(frames int, quick bool) error {
	header("Table 2: outlier compression modes across KITTI scenes (q=2cm)")
	rows, err := benchkit.Table2(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-18s %10s\n", "mode", "scene", "ratio")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%-10s %-18s %10.2f\n", r.Mode, r.Scene, r.Ratio)
		csvRows = append(csvRows, []string{r.Mode, string(r.Scene), f64(r.Ratio)})
	}
	return writeCSV("table2", []string{"mode", "scene", "ratio"}, csvRows)
}

func runFig12(frames int, quick bool) error {
	header("Figure 12: compression/decompression time vs. error bound (city)")
	rows, err := benchkit.Fig12(qs(quick), frames)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %14s %14s\n", "codec", "q(cm)", "compress", "decompress")
	var csvRows [][]string
	for _, r := range rows {
		fmt.Printf("%-10s %8.3f %14s %14s\n", r.Codec, r.Q*100, r.Compress.Round(1e6), r.Decompress.Round(1e6))
		csvRows = append(csvRows, []string{r.Codec, f64(r.Q), f64(r.Compress.Seconds()), f64(r.Decompress.Seconds())})
	}
	return writeCSV("fig12", []string{"codec", "q_m", "compress_s", "decompress_s"}, csvRows)
}

func runFig13(frames int, quick bool) error {
	header("Figure 13: DBGC stage breakdown (city, q=2cm)")
	res, err := benchkit.Fig13(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("compression total %s:\n", res.TotalCompress.Round(1e6))
	fmt.Printf("  DEN %5.1f%%  OCT %5.1f%%  COR %5.1f%%  ORG %5.1f%%  SPA %5.1f%%  OUT %5.1f%%\n",
		res.DEN*100, res.OCT*100, res.COR*100, res.ORG*100, res.SPA*100, res.OUT*100)
	fmt.Printf("decompression total %s\n", res.TotalDecompress.Round(1e6))
	return nil
}

func runCluster(frames int, quick bool) error {
	header("§4.3: clustering — split fractions and approximate speedup (city, q=2cm)")
	res, err := benchkit.ClusterExp(benchkit.DefaultQ)
	if err != nil {
		return err
	}
	fmt.Printf("dense %.1f%%  sparse %.1f%%  outliers %.1f%%\n",
		res.DenseFrac*100, res.SparseFrac*100, res.OutlierFrac*100)
	fmt.Printf("clustering: exact %s vs approx %s (%.1fx)\n",
		res.ExactTime.Round(1e6), res.ApproxTime.Round(1e6), res.ClusterSpeedup)
	fmt.Printf("end-to-end: exact %s vs approx %s (%.2fx)\n",
		res.ExactPipeline.Round(1e6), res.ApproxPipeline.Round(1e6), res.PipelineSpeedup)
	fmt.Printf("dense-set agreement (jaccard): %.3f\n", res.Jaccard)
	return nil
}

func runThroughput(frames int, quick bool) error {
	header("§4.4: throughput and bandwidth (city, q=2cm, 10 fps)")
	res, err := benchkit.Throughput(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("points/frame: %d\n", res.PointsPerFrame)
	fmt.Printf("raw stream:        %6.1f Mbps\n", res.RawMbps)
	fmt.Printf("compressed stream: %6.2f Mbps (4G uplink reference %.1f Mbps, fits: %v)\n",
		res.CompressedMbps, res.FourGMbps, res.FitsFourG)
	fmt.Printf("compression: %s/frame (%.1f frames/s sustained, sensor produces 10/s)\n",
		res.CompressPerFrame.Round(1e6), res.FramesPerSecond)
	return nil
}

func runTemporal(frames int, quick bool) error {
	header("Extension: temporal stream compression (static campus capture, q=2cm)")
	n := frames + 3
	if n < 4 {
		n = 4
	}
	res, err := benchkit.Temporal(lidar.Campus, n, benchkit.DefaultQ)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %10s %8s\n", "frame", "kind", "bytes", "ratio")
	for _, r := range res.Frames {
		kind := "I"
		if r.Predicted {
			kind = "P"
		}
		fmt.Printf("%6d %6s %10d %8.2f\n", r.Seq, kind, r.Bytes, r.Ratio)
	}
	fmt.Printf("all-I container %d bytes, temporal %d bytes: %.2fx\n",
		res.PlainBytes, res.TemporalBytes, res.Gain)
	return nil
}

// jsonOut, when set, receives the perf experiment result as JSON.
var jsonOut string

func runPerf(frames int, quick bool) error {
	header("Performance architecture: one worker vs all, scratch reuse, frame pipeline (city, q=2cm)")
	res, err := benchkit.Perf(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("cpus: %d (GOMAXPROCS %d), %d points/frame, %d bytes compressed (ratio %.2f)\n",
		res.NumCPU, res.GOMAXPROCS, res.PointsPerFrame, res.FrameBytes, res.Ratio)
	fmt.Printf("decode:   GOMAXPROCS 1 %7.1f ms, %d %7.1f ms (%.2fx)\n",
		res.OneWorkerDecodeMs, res.GOMAXPROCS, res.AllWorkersDecodeMs, res.DecodeSpeedup)
	fmt.Printf("          allocs/op: %.0f, %.0f\n",
		res.OneWorkerDecodeAllocs, res.AllWorkersDecodeAllocs)
	fmt.Printf("compress: GOMAXPROCS 1 %7.1f ms, %d %7.1f ms (%.2fx)\n",
		res.OneWorkerCompressMs, res.GOMAXPROCS, res.AllWorkersCompressMs, res.CompressSpeedup)
	fmt.Printf("          allocs/op at 1: %.0f; byte-identical across widths: %v\n",
		res.OneWorkerCompressAllocs, res.CompressIdentical)
	fmt.Printf("          reusable Encoder: %7.1f ms, %.0f allocs/op\n",
		res.EncoderCompressMs, res.EncoderCompressAllocs)
	fmt.Printf("pipeline (%d frames, %d workers): pack %.1f -> %.1f fps, read %.1f -> %.1f fps, byte-identical: %v\n",
		res.PipelineFrames, res.PipelineWorkers,
		res.SerialPackFPS, res.PipelinedPackFPS,
		res.SerialReadFPS, res.PipelinedReadFPS, res.PipelineIdentical)
	if res.NumCPU == 1 {
		fmt.Println("note: single-core host; more workers cannot show wall-clock gains here")
	}
	if jsonOut != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// sweepShards and sweepProcs hold the -shards / -gomaxprocs flags for the
// sweep experiment.
var (
	sweepShards int
	sweepProcs  []int
)

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func runSweep(frames int, quick bool) error {
	header("Multi-core scaling: GOMAXPROCS sweep of the sharded codec (city, q=2cm)")
	res, err := benchkit.Sweep(benchkit.DefaultQ, sweepShards, sweepProcs, frames)
	if err != nil {
		return err
	}
	fmt.Printf("cpus: %d, shards: %d, %d points/frame, %d bytes (ratio %.2f; legacy %.2f, drift %+.3f%%)\n",
		res.NumCPU, res.Shards, res.PointsPerFrame, res.FrameBytes, res.Ratio, res.LegacyRatio, res.RatioDeltaPct)
	fmt.Printf("shards=1 byte-identical to legacy container: %v\n", res.ShardsOneIdentical)
	fmt.Printf("%6s %8s %12s %12s %10s %10s %12s %12s\n",
		"procs", "workers", "compress", "decompress", "pack/s", "unpack/s", "stream-pack", "stream-unpack")
	var csvRows [][]string
	for _, p := range res.Sweep {
		fmt.Printf("%6d %8d %9.1f ms %9.1f ms %10.2f %10.2f %12.2f %12.2f\n",
			p.GOMAXPROCS, p.Workers, p.CompressMs, p.DecompressMs,
			p.PackFPS, p.UnpackFPS, p.StreamPackFPS, p.StreamUnpackFPS)
		fmt.Printf("       speedup vs procs=1: compress %.2fx, decompress %.2fx | stages DEN %.1f OCT %.1f (ENT %.1f) COR %.1f ORG %.1f SPA %.1f OUT %.1f ms\n",
			p.CompressSpeedup, p.DecompressSpeedup,
			p.Stages.DEN, p.Stages.OCT, p.Stages.ENT, p.Stages.COR, p.Stages.ORG, p.Stages.SPA, p.Stages.OUT)
		csvRows = append(csvRows, []string{
			fmt.Sprint(p.GOMAXPROCS), fmt.Sprint(p.Workers),
			f64(p.CompressMs), f64(p.DecompressMs),
			f64(p.CompressSpeedup), f64(p.DecompressSpeedup),
			f64(p.StreamPackFPS), f64(p.StreamUnpackFPS),
		})
	}
	if res.NumCPU == 1 {
		fmt.Println("note: single-core host; the sweep documents the plateau, not a multi-core gain")
	}
	if jsonOut != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return writeCSV("sweep", []string{"gomaxprocs", "workers", "compress_ms", "decompress_ms",
		"compress_speedup", "decompress_speedup", "stream_pack_fps", "stream_unpack_fps"}, csvRows)
}

func runPack(frames int, quick bool) error {
	header("Block bitpacking ablation: blockpack vs legacy codecs per integer stream (city, q=2cm)")
	res, err := benchkit.Pack(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("%d points, %d iters per timing\n", res.Points, res.Iters)
	fmt.Printf("%-20s %9s %5s %10s %10s %8s %10s %10s %8s\n",
		"stream", "count", "segs", "leg bytes", "bp bytes", "Δbytes", "leg dec", "bp dec", "dec spd")
	var csvRows [][]string
	for _, s := range res.Streams {
		fmt.Printf("%-20s %9d %5d %10d %10d %+7.1f%% %8.2fms %8.2fms %7.2fx\n",
			s.Name, s.Count, s.Segments, s.LegacyBytes, s.PackBytes, s.BytesDeltaPct,
			s.LegacyDecNs/1e6, s.PackDecNs/1e6, s.DecodeSpeedup)
		csvRows = append(csvRows, []string{
			s.Name, fmt.Sprint(s.Count), fmt.Sprint(s.LegacyBytes), fmt.Sprint(s.PackBytes),
			f64(s.LegacyEncNs), f64(s.PackEncNs), f64(s.LegacyDecNs), f64(s.PackDecNs),
			f64(s.DecodeSpeedup),
		})
	}
	fmt.Printf("streams total: %d -> %d bytes, decode speedup %.2fx (min %.2fx)\n",
		res.TotalLegacyBytes, res.TotalPackBytes, res.TotalDecodeSpeedup, res.MinDecodeSpeedup)
	fmt.Printf("%-26s %8s %8s %8s %10s %12s %8s\n",
		"container", "version", "shards", "ratio", "bytes", "vs v3", "ok")
	for _, f := range res.Frames {
		fmt.Printf("%-26s %8d %8d %8.2f %10d %+11.3f%% %8v\n",
			f.Config, f.Version, f.Shards, f.Ratio, f.Bytes, f.DeltaVsV3Pct, f.RoundTripOK)
	}
	fmt.Printf("v4 no larger than v3 and all round trips ok: %v\n", res.V4WithinV3)
	if jsonOut != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return writeCSV("pack", []string{"stream", "count", "legacy_bytes", "blockpack_bytes",
		"legacy_encode_ns", "blockpack_encode_ns", "legacy_decode_ns", "blockpack_decode_ns",
		"decode_speedup"}, csvRows)
}

func runCtx(frames int, quick bool) error {
	header("Context-modeled entropy coding ablation: feature sweep and v5 dialect matrix (city, q=2cm)")
	res, err := benchkit.Ctx(benchkit.DefaultQ, frames)
	if err != nil {
		return err
	}
	fmt.Printf("%d points, %d iters per timing\n", res.Points, res.Iters)
	fmt.Printf("%-26s %9s %10s %10s %8s %10s %10s\n",
		"features", "contexts", "leg bytes", "ctx bytes", "Δbytes", "enc", "dec")
	var csvRows [][]string
	for _, s := range res.Features {
		fmt.Printf("%-26s %9d %10d %10d %+7.2f%% %8.2fms %8.2fms\n",
			s.Features, s.Contexts, s.LegacyBytes, s.CtxBytes, s.BytesDeltaPct,
			s.EncNs/1e6, s.DecNs/1e6)
		csvRows = append(csvRows, []string{
			s.Features, fmt.Sprint(s.Contexts), fmt.Sprint(s.LegacyBytes), fmt.Sprint(s.CtxBytes),
			f64(s.BytesDeltaPct), f64(s.EncNs), f64(s.DecNs),
		})
	}
	fmt.Printf("sparse section: %d -> %d bytes (%+.2f%%)\n",
		res.SparseLegacyBytes, res.SparseCtxBytes, res.SparseDeltaPct)
	fmt.Printf("%-38s %8s %8s %8s %10s %10s %11s %11s %9s %6s\n",
		"container", "version", "shards", "ratio", "bytes", "vs base", "unpack fps", "stream fps", "1=all", "ok")
	for _, f := range res.Frames {
		fmt.Printf("%-38s %8d %8d %8.2f %10d %+9.3f%% %11.1f %11.1f %9v %6v\n",
			f.Config, f.Version, f.Shards, f.Ratio, f.Bytes, f.DeltaVsBasePct,
			f.UnpackFPS, f.StreamUnpackFPS, f.OneWorkerIdentical, f.RoundTripOK)
	}
	fmt.Printf("headline ctx ratio %.2f (plateau 20.5 broken: %v), guard ok: %v, unpack within 15%%: %v\n",
		res.CtxRatio, res.PlateauBroken, res.GuardOK, res.UnpackWithin15Pct)
	if jsonOut != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return writeCSV("ctx", []string{"features", "contexts", "legacy_bytes", "ctx_bytes",
		"bytes_delta_pct", "encode_ns", "decode_ns"}, csvRows)
}

func runMemory(frames int, quick bool) error {
	header("§4.4: memory (city, q=2cm)")
	res, err := benchkit.Memory(benchkit.DefaultQ)
	if err != nil {
		return err
	}
	fmt.Printf("compression heap growth:   %6.1f MB (paper: ~45 MB RSS)\n", res.CompressHeapMB)
	fmt.Printf("decompression heap growth: %6.1f MB (paper: ~12 MB RSS)\n", res.DecompressHeapMB)
	return nil
}
