// Package dbgc is a density-based geometry compressor for LiDAR point
// clouds, a Go implementation of the system described in
//
//	Xibo Sun and Qiong Luo.
//	"Density-Based Geometry Compression for LiDAR Point Clouds."
//	EDBT 2023.
//
// DBGC compresses a single LiDAR frame under a user-given per-point error
// bound (for example 2 cm, the measurement accuracy of typical sensors).
// Density-based clustering separates dense points — compressed with an
// octree — from sparse points, which are organized into polylines in the
// spherical coordinate space and compressed with delta and entropy coding;
// remaining outliers are coded with a 2D quadtree. At equal accuracy it
// compresses large-scale scene clouds substantially better than octree,
// kd-tree, and G-PCC style coders.
//
// # Quickstart
//
//	pc := dbgc.PointCloud{{X: 1, Y: 2, Z: 0.5}, ...} // sensor at origin
//	data, stats, err := dbgc.Compress(pc, dbgc.DefaultOptions(0.02))
//	...
//	back, err := dbgc.Decompress(data)
//
// The decompressed cloud has exactly as many points as the input;
// stats.Mapping relates decoded positions to original indices so that
// per-point error can be verified.
package dbgc

import (
	"fmt"
	"math"

	"dbgc/internal/core"
	"dbgc/internal/geom"
	"dbgc/internal/lidar"
)

// Point is a 3D point in meters, in the sensor frame (the sensor sits at
// the origin).
type Point = geom.Point

// PointCloud is a set of points (the paper's PC).
type PointCloud = geom.PointCloud

// Options configures compression. Construct with DefaultOptions and adjust
// fields as needed.
type Options = core.Options

// Stats describes one compression run: the dense/sparse/outlier split,
// per-section sizes, stage timings, and the one-to-one mapping.
type Stats = core.Stats

// OutlierMode selects the outlier compressor.
type OutlierMode = core.OutlierMode

// Outlier compressor choices (§3.6 and Table 2 of the paper).
const (
	OutlierQuadtree = core.OutlierQuadtree
	OutlierOctree   = core.OutlierOctree
	OutlierNone     = core.OutlierNone
)

// DefaultOptions returns the default configuration for per-dimension error
// bound q (meters): k = 10 as in the paper, the surface-bound minPts
// (⌈πk²/4⌉, see DESIGN.md), 6 geometric radial groups, HDL-64E sensor
// geometry, quadtree outlier coding, approximate clustering, and
// ContextModel — each sparse angular stream coded by the cheapest of its
// §3.5 coder, arithmetic coding and the context coder (container v5).
// Setting ContextModel to false gives the paper's own stream coders and the
// v2 container earlier releases wrote by default.
func DefaultOptions(q float64) Options { return core.DefaultOptions(q) }

// SensorOptions returns DefaultOptions adjusted to a sensor's angular
// geometry, estimated from cloud metadata when the sensor is unknown.
func SensorOptions(q float64, meta lidar.Meta) Options {
	o := core.DefaultOptions(q)
	if ut := meta.UTheta(); ut > 0 {
		o.UTheta = ut
	}
	if up := meta.UPhi(); up > 0 {
		o.UPhi = up
	}
	return o
}

// Compress encodes the cloud under the given options and returns the
// compressed bit sequence together with statistics about the run.
//
// Every reconstructed point is within the error bound of its original:
// per dimension q for octree- and quadtree-coded points, and within
// Euclidean distance √3·q for spherical-coded points (Theorem 3.2 — the
// same worst case as independent per-dimension errors of q).
//
// The bound is held for coordinates up to q·2^48 in magnitude (5.6e12 m at
// q = 2 cm). Compress refuses a cloud with a NaN, infinite or larger
// coordinate, with an error naming the first such point: past that range
// float64 has no q of precision left for the far point, and ordinary points
// near it in the coder's partition would lose the bound with it. A frame
// more than q·2^41 across with dense points at its far ends is written with
// an octree of 41 to 48 levels, which decoders from releases that stopped
// at 40 reject as corrupt; narrower frames are written as they always were.
func Compress(pc PointCloud, opts Options) ([]byte, *Stats, error) {
	return core.Compress(pc, opts)
}

// Encoder compresses frames while recycling per-frame working memory
// across calls — the dense/sparse split, gathered sub-clouds, and the
// mapping buffer. Streaming callers compressing many frames should prefer
// it over Compress. The Stats returned by its Compress (including
// Stats.Mapping) are valid only until the next call on the same Encoder;
// an Encoder is not safe for concurrent use.
type Encoder = core.Encoder

// NewEncoder returns an Encoder that compresses with opts.
func NewEncoder(opts Options) *Encoder { return core.NewEncoder(opts) }

// CompressWith encodes the cloud with a reusable Encoder, equivalent to
// enc.Compress(pc). See Encoder for the Stats lifetime contract.
func CompressWith(enc *Encoder, pc PointCloud) ([]byte, *Stats, error) {
	return enc.Compress(pc)
}

// Decompress reconstructs a point cloud from a compressed bit sequence.
// The result holds exactly as many points as the original cloud, in decode
// order (dense, polyline, then outlier points).
func Decompress(data []byte) (PointCloud, error) {
	return core.Decompress(data)
}

// DecompressOptions configures decompression. The zero value sets no
// limits, matching Decompress.
type DecompressOptions = core.DecompressOptions

// DecodeLimits bounds the resources a decode may spend on one untrusted
// frame: decoded points, entropy symbols / tree nodes, per-section
// compressed bytes, total decoded-output memory, and an optional context
// whose deadline or cancellation aborts the decode. The zero value is
// unlimited.
type DecodeLimits = core.DecodeLimits

// ErrDecodeLimit is wrapped by errors returned when a decode exceeds its
// DecodeLimits.
var ErrDecodeLimit = core.ErrLimit

// DefaultDecodeLimits returns production limits generous enough for any
// real LiDAR frame while bounding hostile input.
func DefaultDecodeLimits() DecodeLimits { return core.DefaultDecodeLimits() }

// DecompressWith is Decompress with explicit options.
func DecompressWith(data []byte, opts DecompressOptions) (PointCloud, error) {
	return core.DecompressWith(data, opts)
}

// SectionID names one of a frame's three sections (dense, sparse,
// outlier) in container order.
type SectionID = core.SectionID

// Section identifiers, in container order.
const (
	SectionDense   = core.SectionDense
	SectionSparse  = core.SectionSparse
	SectionOutlier = core.SectionOutlier
)

// SectionReport describes the decode outcome of one frame section, as
// returned by DecompressPartial.
type SectionReport = core.SectionReport

// DecompressPartial decodes every intact section of a frame and skips
// damaged ones, returning the partial cloud plus one report per section.
// Damage is detected by the per-section CRC32s of container version 2 and
// by decode failure on both versions. The error is non-nil only when the
// frame envelope itself cannot be parsed.
func DecompressPartial(data []byte, opts DecompressOptions) (PointCloud, []SectionReport, error) {
	return core.DecompressPartial(data, opts)
}

// AABB is an axis-aligned query box.
type AABB = geom.AABB

// DecompressRegion reconstructs only the points inside the box, pruning
// compressed sections that cannot contribute: octree subtrees outside the
// region are skipped during replay and radial point groups whose shell
// misses the box are not entropy-decoded at all. Useful when frames are
// stored compressed and queried spatially.
func DecompressRegion(data []byte, region AABB) (PointCloud, error) {
	return core.DecompressRegion(data, region)
}

// DecompressRegionWith is DecompressRegion with explicit options. Limits
// bound the region decode as they bound DecompressWith: a frame that one
// refuses under given limits, the other refuses too. Use it on frames from
// untrusted sources, stored ones included.
func DecompressRegionWith(data []byte, region AABB, opts DecompressOptions) (PointCloud, error) {
	return core.DecompressRegionWith(data, region, opts)
}

// VerifyErrorBound checks that dec is a faithful reconstruction of orig
// under mapping (from Stats.Mapping): same size, mapping is a permutation,
// and every point pair within Euclidean distance √3·q. It returns the
// maximum Euclidean error observed.
func VerifyErrorBound(orig, dec PointCloud, mapping []int32, q float64) (maxErr float64, err error) {
	if len(orig) != len(dec) {
		return 0, fmt.Errorf("dbgc: size mismatch: %d original vs %d decompressed", len(orig), len(dec))
	}
	if len(mapping) != len(orig) {
		return 0, fmt.Errorf("dbgc: mapping has %d entries, want %d", len(mapping), len(orig))
	}
	seen := make([]bool, len(orig))
	bound := math.Sqrt(3) * q * (1 + 1e-9)
	for j, oi := range mapping {
		if oi < 0 || int(oi) >= len(orig) || seen[oi] {
			return 0, fmt.Errorf("dbgc: mapping is not a permutation at position %d", j)
		}
		seen[oi] = true
		d := orig[oi].Dist(dec[j])
		if d > maxErr {
			maxErr = d
		}
		if d > bound {
			return maxErr, fmt.Errorf("dbgc: point %d error %v exceeds bound %v", oi, d, bound)
		}
	}
	return maxErr, nil
}
