package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// runPack packs a sequence of .bin frames into a .dbgs stream container.
func runPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	q := fs.Float64("q", 0.02, "per-dimension error bound in meters")
	fps := fs.Float64("fps", 10, "sensor frame rate recorded in the container")
	withIntensity := fs.Bool("intensity", false, "carry the intensity channel")
	ctx := fs.Bool("ctx", true, "code each sparse angular stream by the cheapest of its paper coder, arithmetic coding and the context coder (v5 frames); -ctx=false keeps the paper's §3.5 coders (v2)")
	fs.Parse(args)
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: dbgc pack [-q m] [-fps n] [-intensity] [-ctx=false] frame1.bin [frame2.bin ...] output.dbgs")
		os.Exit(2)
	}
	inputs := fs.Args()[:fs.NArg()-1]
	outPath := fs.Arg(fs.NArg() - 1)
	// Directories expand to their .bin contents in name order.
	var frames []string
	for _, in := range inputs {
		info, err := os.Stat(in)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			frames = append(frames, in)
			continue
		}
		entries, err := os.ReadDir(in)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".bin") {
				names = append(names, filepath.Join(in, e.Name()))
			}
		}
		sort.Strings(names)
		frames = append(frames, names...)
	}
	if len(frames) == 0 {
		return errors.New("no input frames")
	}

	packOpts := dbgc.DefaultOptions(*q)
	packOpts.ContextModel = *ctx
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	rawTotal, compTotal, err := packFrames(out, frames, packOpts, *fps, *withIntensity)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A container without its end marker is not one: leave nothing behind.
		os.Remove(outPath)
		return err
	}
	fmt.Printf("packed %d frames: %d -> %d bytes (%.2fx)\n",
		len(frames), rawTotal, compTotal, float64(rawTotal)/float64(compTotal))
	return nil
}

// packFrames writes the named frames to out as one container and returns the
// raw and compressed byte totals.
func packFrames(out io.Writer, frames []string, opts dbgc.Options, fps float64, withIntensity bool) (rawTotal, compTotal int, err error) {
	w, err := stream.NewWriter(out, opts, fps)
	if err != nil {
		return 0, 0, err
	}
	w.OnStats = func(fstat stream.FrameStats) {
		compTotal += fstat.GeometryBytes + fstat.IntensityBytes
		fmt.Printf("%s: %d points -> %d bytes (ratio %.2f)\n",
			frames[fstat.Seq], fstat.Points, fstat.GeometryBytes, fstat.Ratio)
	}
	for _, path := range frames {
		f, err := os.Open(path)
		if err != nil {
			return 0, 0, err
		}
		var pc dbgc.PointCloud
		var intens []float32
		if withIntensity {
			pc, intens, err = lidar.ReadBinWithIntensity(f)
		} else {
			pc, err = lidar.ReadBin(f)
		}
		f.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", path, err)
		}
		if err := w.WriteFrame(pc, intens); err != nil {
			return 0, 0, err
		}
		rawTotal += pc.RawSize()
	}
	err = w.Close() // the last frames are written, and counted, here
	return rawTotal, compTotal, err
}

// runUnpack extracts a .dbgs container back into .bin frames.
func runUnpack(args []string) error {
	fs := flag.NewFlagSet("unpack", flag.ExitOnError)
	maxPoints := fs.Int64("max-points", 0, "decode limit: maximum points per frame (0 = unlimited)")
	memBudget := fs.Int64("mem-budget", 0, "decode limit: decoded-memory budget per frame in bytes (0 = unlimited)")
	partial := fs.Bool("partial", false, "recover intact sections of damaged frames instead of aborting")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dbgc unpack [-max-points n] [-mem-budget bytes] [-partial] input.dbgs output-dir")
		os.Exit(2)
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	outDir := fs.Arg(1)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	r, err := stream.NewReader(in)
	if err != nil {
		return err
	}
	if *maxPoints > 0 || *memBudget > 0 {
		r.SetLimits(dbgc.DecodeLimits{MaxPoints: *maxPoints, MemBudget: *memBudget})
	}
	if *partial {
		r.EnablePartial()
	}
	n, damaged := 0, 0
	for {
		fr, err := r.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("%06d.bin", fr.Seq))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := lidar.WriteBinWithIntensity(f, fr.Cloud, fr.Intensity); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if fr.Damage != nil {
			damaged++
			fmt.Printf("%s: %d points (damaged: %s)\n", path, len(fr.Cloud), describeDamage(fr.Damage))
		} else {
			fmt.Printf("%s: %d points\n", path, len(fr.Cloud))
		}
		n++
	}
	if damaged > 0 {
		fmt.Printf("unpacked %d frames, %d damaged (q=%g, fps=%g)\n", n, damaged, r.Q(), r.FPS())
	} else {
		fmt.Printf("unpacked %d frames (q=%g, fps=%g)\n", n, r.Q(), r.FPS())
	}
	return nil
}

// describeDamage renders a FrameDamage for the unpack log.
func describeDamage(d *stream.FrameDamage) string {
	var parts []string
	if d.Err != nil {
		parts = append(parts, d.Err.Error())
	}
	for _, rep := range d.Sections {
		if rep.Err != nil {
			parts = append(parts, fmt.Sprintf("%s section: %v", rep.Section, rep.Err))
		}
	}
	if d.CRCMismatch && len(parts) == 0 {
		parts = append(parts, "frame checksum mismatch")
	}
	if d.AttrErr != nil {
		parts = append(parts, fmt.Sprintf("intensity dropped: %v", d.AttrErr))
	}
	return strings.Join(parts, "; ")
}
