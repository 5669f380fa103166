package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"dbgc/internal/declimits"
	"dbgc/internal/geom"
	"dbgc/internal/octree"
	"dbgc/internal/outlier"
	"dbgc/internal/par"
	"dbgc/internal/sparse"
	"dbgc/internal/streamcodec"
	"dbgc/internal/varint"
)

// DecodeLimits bounds the resources one frame decode may consume: total
// decoded points, entropy symbols / tree nodes, per-section compressed
// bytes, total decoded-output memory, and an optional context whose
// deadline or cancellation aborts the decode. The zero value is unlimited
// and reproduces the historical behaviour.
type DecodeLimits = declimits.Limits

// ErrLimit is wrapped by errors returned when a decode exceeds its
// DecodeLimits. The stream may be well-formed; decoding it just costs more
// than the caller allows.
var ErrLimit = declimits.ErrLimit

// DefaultDecodeLimits returns production limits generous enough for any
// real LiDAR frame while bounding hostile input.
func DefaultDecodeLimits() DecodeLimits { return declimits.DefaultLimits() }

// DecompressOptions configures decoding. The zero value decodes with no
// resource limits.
type DecompressOptions struct {
	// Limits bounds the decode. The sections, which decode side by side,
	// share one budget, so the caps hold for the frame as a whole.
	Limits DecodeLimits
}

// SectionID names one of the three frame sections, in container order.
type SectionID int

const (
	SectionDense SectionID = iota
	SectionSparse
	SectionOutlier
	numSections
)

func (s SectionID) String() string {
	switch s {
	case SectionDense:
		return "dense"
	case SectionSparse:
		return "sparse"
	case SectionOutlier:
		return "outlier"
	default:
		return fmt.Sprintf("section(%d)", int(s))
	}
}

// SectionReport describes the decode outcome of one frame section, as
// returned by DecompressPartial.
type SectionReport struct {
	// Section identifies the section.
	Section SectionID
	// Bytes is the compressed length of the section.
	Bytes int
	// Points is the number of points recovered from the section (0 when
	// the section is damaged beyond salvage).
	Points int
	// Err is nil for an intact section; otherwise it explains the damage
	// (CRC mismatch or decode failure). On v3 sparse sections Err and a
	// nonzero Points can coexist: the per-group CRCs let the decoder skip
	// only the condemned radial groups and keep the rest.
	Err error
	// Raw is the section's compressed payload, aliasing the input frame.
	// Callers quarantining damaged bytes should copy it before the input
	// buffer is reused.
	Raw []byte
}

// section is one framed payload with its CRC32-C.
type section struct {
	payload []byte
	crc     uint32
}

// verify checks the section CRC.
func (s *section) verify(id SectionID) error {
	if crc32.Checksum(s.payload, castagnoli) != s.crc {
		return fmt.Errorf("%w: %s section CRC mismatch", ErrCorrupt, id)
	}
	return nil
}

// container is a parsed frame envelope: version, dialect byte (v5 only,
// zero otherwise), outlier mode, and the three section payloads (not yet
// decoded or CRC-verified).
type container struct {
	version byte
	dialect byte
	mode    OutlierMode
	sec     [numSections]section
}

// streams returns the per-stream entropy dialect of the container: v2 is
// plain, v3 sharded, v4 sharded+blockpacked, and v5 carries the combination
// explicitly in its dialect byte.
func (c container) streams() streamcodec.Dialect {
	if c.version == version5 {
		return streamcodec.Dialect{
			Sharded:   c.dialect&dialectSharded != 0,
			BlockPack: c.dialect&dialectBlockPack != 0,
			Context:   c.dialect&dialectContext != 0,
		}
	}
	return streamcodec.Dialect{Sharded: c.version >= version3, BlockPack: c.version >= version4}
}

// octreeOptions returns what decodes the container's dense section, and its
// outlier section under either tree mode: the dialect and the budget.
func (c container) octreeOptions(b *declimits.Budget) octree.DecodeOptions {
	d := c.streams()
	return octree.DecodeOptions{Budget: b, Sharded: d.Sharded, BlockPack: d.BlockPack, Context: d.Context}
}

// parseContainer splits a frame into its envelope and sections, charging
// declared section lengths against b. It reads versions 2 to 5, which share
// one section framing (length uvarint, CRC32-C fixed32 LE, payload): v3
// keeps the v2 envelope while the section payloads use the sharded entropy
// dialect, v4 additionally codes the integer hot paths with blockpack, and
// v5 names its dialect in a byte after the version. Version 1 (bare section
// lengths, no CRC) is refused like any other unknown version.
func parseContainer(data []byte, b *declimits.Budget) (container, error) {
	var c container
	if len(data) < len(magic)+1 {
		return c, fmt.Errorf("%w: short stream", ErrCorrupt)
	}
	if !bytes.Equal(data[:len(magic)], []byte(magic)) {
		return c, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	c.version = data[len(magic)]
	if c.version < version2 || c.version > version5 {
		return c, fmt.Errorf("core: unsupported version %d", c.version)
	}
	data = data[len(magic)+1:]
	if c.version == version5 {
		if len(data) < 1 {
			return c, fmt.Errorf("%w: missing dialect byte", ErrCorrupt)
		}
		c.dialect = data[0]
		if c.dialect&^(dialectSharded|dialectBlockPack|dialectContext) != 0 {
			return c, fmt.Errorf("%w: unknown dialect bits %#x", ErrCorrupt, c.dialect)
		}
		data = data[1:]
	}
	mode64, used, err := varint.Uint(data)
	if err != nil {
		return c, fmt.Errorf("core: outlier mode: %w", err)
	}
	data = data[used:]
	c.mode = OutlierMode(mode64)

	for id := SectionID(0); id < numSections; id++ {
		l, used, err := varint.Uint(data)
		if err != nil {
			return c, fmt.Errorf("core: %s length: %w", id, err)
		}
		data = data[used:]
		if err := b.Section(int64(l)); err != nil {
			return c, err
		}
		if len(data) < 4 {
			return c, fmt.Errorf("%w: %s CRC truncated", ErrCorrupt, id)
		}
		c.sec[id].crc = binary.LittleEndian.Uint32(data)
		data = data[4:]
		if l > uint64(len(data)) {
			return c, fmt.Errorf("%w: %s section truncated", ErrCorrupt, id)
		}
		c.sec[id].payload = data[:l]
		data = data[l:]
	}
	return c, nil
}

// newBudget returns nil (unlimited, zero overhead) for zero limits.
func newBudget(l DecodeLimits) *declimits.Budget {
	if l.MaxPoints == 0 && l.MaxNodes == 0 && l.MaxSectionBytes == 0 && l.MemBudget == 0 && l.MaxShards == 0 && l.MaxContexts == 0 && l.Ctx == nil {
		return nil
	}
	return declimits.New(l)
}

// Decompress reconstructs the point cloud from a stream produced by
// Compress. Points come back in decode order (dense, then polyline, then
// outlier points); Stats.Mapping from the compressor relates them to the
// original indices.
func Decompress(data []byte) (geom.PointCloud, error) {
	return DecompressWith(data, DecompressOptions{})
}

// DecompressWith is Decompress with explicit options.
func DecompressWith(data []byte, opts DecompressOptions) (geom.PointCloud, error) {
	return decompress(data, nil, opts)
}

// decompress is the decode behind DecompressWith (region == nil) and
// DecompressRegionWith: every section CRC checked, then the sections
// decoded side by side into one buffer.
func decompress(data []byte, region *geom.AABB, opts DecompressOptions) (geom.PointCloud, error) {
	b := newBudget(opts.Limits)
	c, err := parseContainer(data, b)
	if err != nil {
		return nil, err
	}
	for id := range c.sec {
		if err := c.sec[id].verify(SectionID(id)); err != nil {
			return nil, err
		}
	}
	out, _, errs := decodeSections(c, b, region, false, nil)
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", SectionID(id), err)
		}
	}
	return out, nil
}

// DecompressPartial decodes every intact section of a frame and skips
// damaged ones, returning the partial cloud (sections in container order)
// and a report per section. Damage is detected by section CRC and by
// decode failure. Where the sparse section's radial groups carry a CRC-32C
// of their own (sharded and blockpacked frames) it additionally salvages at
// group granularity: groups whose CRC checks out decode even when the
// section as a whole is damaged. The error is non-nil only when
// the frame envelope itself cannot be parsed — then nothing is recoverable.
func DecompressPartial(data []byte, opts DecompressOptions) (geom.PointCloud, []SectionReport, error) {
	b := newBudget(opts.Limits)
	c, err := parseContainer(data, b)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]SectionReport, numSections)
	for id := range c.sec {
		reports[id] = SectionReport{
			Section: SectionID(id),
			Bytes:   len(c.sec[id].payload),
			Raw:     c.sec[id].payload,
		}
		if err := c.sec[id].verify(SectionID(id)); err != nil {
			reports[id].Err = err
			// A sparse section whose radial groups each carry a CRC can
			// still yield its intact groups — keep the payload and let the
			// salvaging decoder condemn groups individually. Everything
			// else: don't hand known-bad bytes to the decoder; empty the
			// payload so decodeSections fails it at the header.
			if SectionID(id) == SectionSparse && sparse.GroupsCarryCRC(c.streams()) {
				continue
			}
			c.sec[id].payload = nil
		}
	}
	out, points, errs := decodeSections(c, b, nil, true, nil)
	for id := range reports {
		if errs[id] != nil {
			if reports[id].Err == nil {
				reports[id].Err = errs[id]
			}
			continue
		}
		// A section decodes here either because it was intact or because
		// group-level salvage recovered part of it; in the salvage case
		// Err stays set (recording the damage) while Points counts what
		// survived.
		reports[id].Points = points[id]
	}
	return out, reports, nil
}

// decodeSections decodes the three sections of a parsed frame through
// par.Each — each is an independently entropy-coded stream — charging b
// throughout, and returns the points inside region (all of them when it is
// nil) in section order, with how many each section gave; a section that
// fails gives none and its error. salvage lets the sparse decoder skip
// CRC-condemned radial groups instead of failing the section
// (DecompressPartial's group-level recovery). The sections decode into
// consecutive windows of one buffer sized from the point counts their
// headers declare — of the radial groups whose shell reaches the box, and
// of a dense section whose cube lies inside it — and Join closes the
// windows up in place: a decode that keeps every point writes each once,
// where it stays, whether or not it was given a box. A non-nil clock makes
// it a replay (ReplayDecode): the sections decode one after another, and
// each one's duration goes on the clock as "octree", "sparse" or "outlier"
// followed by ".decode" or, under a box, ".region".
func decodeSections(c container, b *declimits.Budget, region *geom.AABB, salvage bool, clock StageTimes) (out geom.PointCloud, points [numSections]int, errs [numSections]error) {
	// The container version (plus the v5 dialect byte), not the payload,
	// selects the entropy dialect of the dense and outlier sections; sparse
	// streams are self-flagged.
	octOpts := c.octreeOptions(b)
	sparseOpts := sparse.DecodeOptions{Budget: b, Salvage: salvage}

	var offs [numSections + 1]uint64
	offs[SectionDense+1] = octree.PointCountIn(c.sec[SectionDense].payload, region)
	offs[SectionSparse+1] = offs[SectionSparse] + sparse.PointCountIn(c.sec[SectionSparse].payload, region)
	offs[SectionOutlier+1] = offs[SectionOutlier] + outlierCount(c.sec[SectionOutlier].payload, c.mode)
	buf := make(geom.PointCloud, 0, b.Prealloc(offs[numSections]))
	var pts [numSections]geom.PointCloud
	decode := func(i int) {
		id := SectionID(i)
		dst, data := buf.Window(offs[id], offs[id+1]-offs[id]), c.sec[id].payload
		switch id {
		case SectionDense:
			pts[id], errs[id] = octree.DecodeRegionInto(dst, data, region, octOpts)
		case SectionSparse:
			pts[id], errs[id] = sparse.DecodeRegionInto(dst, data, region, sparseOpts)
		case SectionOutlier:
			// Few points, in one of three codings: they filter where they
			// were decoded.
			pts[id], errs[id] = decodeOutliers(dst, data, c.mode, octOpts)
			if region != nil {
				pts[id] = slices.DeleteFunc(pts[id], func(p geom.Point) bool { return !region.Contains(p) })
			}
		}
		if errs[id] != nil {
			pts[id] = nil
		}
		points[id] = len(pts[id])
	}
	if clock == nil {
		par.Each(int(numSections), decode)
	} else {
		pass := ".decode"
		if region != nil {
			pass = ".region"
		}
		for i, coder := range [numSections]string{"octree", "sparse", "outlier"} {
			t := time.Now()
			decode(i)
			clock.set(coder+pass, time.Since(t))
		}
	}
	out = buf.Join(offs[:], pts[:])
	// A box that kept little gets a slice of its own size: the answer to a
	// lane query must not pin a frame's worth of buffer.
	if len(out) < cap(out)/2 {
		out = slices.Clone(out)
	}
	return out, points, errs
}

// outlierCount returns the point count the outlier section declares under
// mode (zero if unreadable): an untrusted sizing hint like the sections'
// PointCount.
func outlierCount(data []byte, mode OutlierMode) uint64 {
	switch mode {
	case OutlierQuadtree:
		return outlier.PointCount(data)
	case OutlierOctree:
		return octree.PointCount(data)
	default:
		return uint64(len(data)) / 12
	}
}

// decodeOutliers decodes the outlier section under mode and appends its
// points to dst. opts carries the frame's dialect and budget.
func decodeOutliers(dst geom.PointCloud, data []byte, mode OutlierMode, opts octree.DecodeOptions) (pc geom.PointCloud, err error) {
	defer declimits.Recover(&err, ErrCorrupt)
	switch mode {
	case OutlierQuadtree:
		return outlier.DecodeInto(dst, data, outlier.DecodeOptions{Budget: opts.Budget, Sharded: opts.Sharded, BlockPack: opts.BlockPack})
	case OutlierOctree:
		return octree.DecodeInto(dst, data, opts)
	case OutlierNone:
		n, used, err := varint.Uint(data)
		if err != nil {
			return nil, fmt.Errorf("core: raw outlier count: %w", err)
		}
		data = data[used:]
		// Bound n before multiplying: 12*n wraps for adversarial counts
		// near 2^64, which would let a huge n pass the length check.
		if n != uint64(len(data))/12 || uint64(len(data)) != 12*n {
			return nil, fmt.Errorf("%w: raw outlier section has %d bytes, want 12*%d", ErrCorrupt, len(data), n)
		}
		if err := opts.Budget.Points(int64(n)); err != nil {
			return nil, err
		}
		out := slices.Grow(dst, int(n))
		for ; len(data) > 0; data = data[12:] {
			out = append(out, geom.Point{
				X: float64(readFloat32(data)),
				Y: float64(readFloat32(data[4:])),
				Z: float64(readFloat32(data[8:])),
			})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown outlier mode %d", ErrCorrupt, mode)
	}
}

func readFloat32(b []byte) float32 {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return math.Float32frombits(v)
}
