// Package declimits bounds the resources a decoder may spend on one
// untrusted stream. Every DBGC decoder sizes work from header-declared
// counts; a hostile or corrupt header can declare counts that are
// syntactically valid yet describe gigabytes of output (a decompression
// bomb) or an entropy stream that keeps yielding near-zero-cost symbols.
// A Budget is created from caller-chosen Limits, shared by every section
// of a frame (including sections decoding concurrently), and charged as
// points, tree nodes, and bytes materialize; the first charge that cannot
// be covered stops the decode with ErrLimit.
package declimits

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrLimit reports a decode that exceeded its resource budget. It is
// distinct from the per-package ErrCorrupt sentinels: the stream may even
// be well-formed, but decoding it costs more than the caller allows.
var ErrLimit = errors.New("declimits: decode resource limit exceeded")

// Limits bounds one frame decode. The zero value of every field means
// "unlimited", so a zero Limits reproduces the historical behaviour.
type Limits struct {
	// MaxPoints caps the total number of decoded points across all
	// sections of the frame.
	MaxPoints int64
	// MaxNodes caps the total number of entropy-decoded symbols and tree
	// nodes. This is the defence against adaptive-model streams whose
	// per-symbol cost collapses toward zero bits: such a stream is tiny
	// on the wire but can otherwise expand without bound.
	MaxNodes int64
	// MaxSectionBytes caps the byte length any single compressed section
	// may declare.
	MaxSectionBytes int64
	// MemBudget caps the total bytes of decoded output the frame may
	// materialize (points, occupancy buffers, count tables).
	MemBudget int64
	// MaxShards caps the shard count any single sharded entropy stream
	// (container v3) may declare. Each declared shard costs a length
	// varint, a slice header, and eventually a goroutine, so the cap keeps
	// a corrupt header from amplifying into thousands of decode tasks.
	MaxShards int64
	// MaxContexts caps the context count any single context-modeled
	// entropy stream (container v5) may declare. Every context backs an
	// adaptive frequency table (~1 KiB for the 256-symbol alphabet), so
	// the cap bounds the table memory a corrupt header can demand before
	// a single symbol decodes.
	MaxContexts int64
	// Ctx, when non-nil, is polled during decoding; its deadline or
	// cancellation aborts the decode with the context's error.
	Ctx context.Context
}

// DefaultLimits returns production limits generous enough for any real
// LiDAR frame (a 64-beam sensor yields ~130k points/frame) while bounding
// hostile input to tens of megabytes of decoder memory.
func DefaultLimits() Limits {
	return Limits{
		MaxPoints:       8 << 20,   // 8M points/frame
		MaxNodes:        64 << 20,  // entropy symbols + tree nodes
		MaxSectionBytes: 256 << 20, // one compressed section
		MemBudget:       1 << 30,   // 1 GiB of decoded output
		MaxShards:       256,       // shards per entropy stream
		MaxContexts:     4096,      // contexts per context-modeled stream
	}
}

// Budget is the running remainder of a Limits. It is safe for concurrent
// use: parallel decoding charges section costs from several goroutines.
// A nil *Budget is valid everywhere and means "unlimited".
type Budget struct {
	lim    Limits
	points atomic.Int64
	nodes  atomic.Int64
	mem    atomic.Int64
	// ticks counts charges so the context is polled periodically rather
	// than on every node.
	ticks atomic.Int64
}

// pointBytes and nodeBytes are the memory charged per decoded point
// (geom.Point: three float64) and per tree node (BFS cell structures).
const (
	pointBytes = 24
	nodeBytes  = 16
)

// ctxPollInterval is how many charges pass between context polls.
const ctxPollInterval = 4096

// New returns a Budget with the full Limits available. Unset (zero or
// negative) fields become unlimited.
func New(l Limits) *Budget {
	b := &Budget{lim: l}
	b.points.Store(orUnlimited(l.MaxPoints))
	b.nodes.Store(orUnlimited(l.MaxNodes))
	b.mem.Store(orUnlimited(l.MemBudget))
	return b
}

func orUnlimited(v int64) int64 {
	if v <= 0 {
		return math.MaxInt64
	}
	return v
}

// Points charges n decoded points (and their memory) against the budget.
func (b *Budget) Points(n int64) error {
	if b == nil {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("%w: negative point charge", ErrLimit)
	}
	if b.points.Add(-n) < 0 {
		return fmt.Errorf("%w: more than %d decoded points", ErrLimit, b.lim.MaxPoints)
	}
	return b.Mem(n * pointBytes)
}

// Nodes charges n entropy symbols / tree nodes (and their memory).
func (b *Budget) Nodes(n int64) error {
	if b == nil {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("%w: negative node charge", ErrLimit)
	}
	if b.nodes.Add(-n) < 0 {
		return fmt.Errorf("%w: more than %d decode nodes", ErrLimit, b.lim.MaxNodes)
	}
	return b.Mem(n * nodeBytes)
}

// Mem charges n bytes of decoded output memory.
func (b *Budget) Mem(n int64) error {
	if b == nil {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("%w: negative memory charge", ErrLimit)
	}
	if b.mem.Add(-n) < 0 {
		return fmt.Errorf("%w: more than %d bytes of decoded output", ErrLimit, b.lim.MemBudget)
	}
	return b.poll()
}

// Shards validates one sharded stream's declared shard count. Unlike the
// charge methods it is not cumulative: the shards of different streams
// decode sequentially per stream, so only the per-stream fan-out needs
// bounding.
func (b *Budget) Shards(n int64) error {
	if b == nil {
		return nil
	}
	if b.lim.MaxShards > 0 && n > b.lim.MaxShards {
		return fmt.Errorf("%w: stream declares %d shards, cap %d", ErrLimit, n, b.lim.MaxShards)
	}
	return b.Check()
}

// Contexts validates one context-modeled stream's declared context count
// and charges the frequency-table memory the bank will allocate
// (n contexts of modelBytes each, shared per shard by the pooled banks).
// Like Shards it is per-stream, not cumulative across streams — but the
// table bytes do charge the cumulative memory budget.
func (b *Budget) Contexts(n, modelBytes int64) error {
	if b == nil {
		return nil
	}
	if n < 0 || modelBytes < 0 {
		return fmt.Errorf("%w: negative context charge", ErrLimit)
	}
	if b.lim.MaxContexts > 0 && n > b.lim.MaxContexts {
		return fmt.Errorf("%w: stream declares %d contexts, cap %d", ErrLimit, n, b.lim.MaxContexts)
	}
	return b.Mem(n * modelBytes)
}

// Section validates one compressed section's declared byte length.
func (b *Budget) Section(n int64) error {
	if b == nil {
		return nil
	}
	if b.lim.MaxSectionBytes > 0 && n > b.lim.MaxSectionBytes {
		return fmt.Errorf("%w: section of %d bytes exceeds cap %d", ErrLimit, n, b.lim.MaxSectionBytes)
	}
	return b.Check()
}

// Check polls the context (if any) unconditionally. Decoders call it at
// section boundaries; the charge methods call it every ctxPollInterval
// charges.
func (b *Budget) Check() error {
	if b == nil || b.lim.Ctx == nil {
		return nil
	}
	if err := b.lim.Ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrLimit, err)
	}
	return nil
}

func (b *Budget) poll() error {
	if b.lim.Ctx == nil {
		return nil
	}
	if b.ticks.Add(1)%ctxPollInterval != 0 {
		return nil
	}
	return b.Check()
}

// CapPrealloc bounds a header-declared element count before it is used as
// an allocation capacity, so a corrupt header cannot force a huge up-front
// allocation. Decoding still appends past the clamp when the stream really
// carries that many elements (each append having been charged).
func CapPrealloc(n uint64) int {
	const maxPrealloc = 1 << 22
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// Prealloc returns the capacity to reserve for n points that headers
// declare but no decoder has charged yet: CapPrealloc(n), or zero when what
// is left of the budget cannot cover n points — that decode is going to
// stop at a charge, and it should not allocate first.
func (b *Budget) Prealloc(n uint64) int {
	if b != nil {
		left := min(b.points.Load(), b.mem.Load()/pointBytes)
		if left < 0 || n > uint64(left) {
			return 0
		}
	}
	return CapPrealloc(n)
}

// Recover converts a panic at a codec boundary into an error wrapping
// sentinel, so a decoder bug on hostile bytes costs one failed frame
// instead of the process:
//
//	func Decode(data []byte) (pc PointCloud, err error) {
//		defer declimits.Recover(&err, ErrCorrupt)
//		...
func Recover(errp *error, sentinel error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("%w: decoder panic: %v", sentinel, r)
	}
}
