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
// throughput, memory, all. Speed and ratio numbers that enter the
// repository come from the benchmark under bench/ (`make bench`), not from
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"dbgc/internal/benchkit"
	"dbgc/internal/lidar"
)

// order is the sequence `-exp all` runs, and the list the -exp help prints.
var order = []string{"fig3", "fig9", "fig10", "fig11", "table2", "fig12", "fig13", "cluster", "throughput", "memory"}

var runners = map[string]func(frames int, quick bool) error{
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
}

func expHelp() string {
	return "experiment to run: " + strings.Join(order, ", ") + ", all"
}

func main() {
	exp := flag.String("exp", "all", expHelp())
	frames := flag.Int("frames", 2, "frames per configuration (the paper uses 1000)")
	quick := flag.Bool("quick", false, "restrict sweeps to fewer error bounds and scenes")
	csvDir := flag.String("csv", "", "also write raw rows as CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.Parse()
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
