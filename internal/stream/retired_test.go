package stream

import (
	"bytes"
	"errors"
	"testing"

	"dbgc"
)

// TestStreamShardedFrames: a writer given the options of a retired dialect —
// sharded or blockpacked frames — writes no frame: the first error it
// reports, from WriteFrame or at the latest from Close, is
// dbgc.ErrRetiredDialect, and no end marker follows what it wrote.
func TestStreamShardedFrames(t *testing.T) {
	frames := testFrames(t, 3)
	for _, set := range []func(*dbgc.Options){
		func(o *dbgc.Options) { o.Shards = 4 },
		func(o *dbgc.Options) { o.BlockPack = true },
	} {
		opts := dbgc.DefaultOptions(0.02)
		set(&opts)
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range frames {
			if err = w.WriteFrame(pc, nil); err != nil {
				break
			}
		}
		if err == nil {
			err = w.Close()
		}
		if !errors.Is(err, dbgc.ErrRetiredDialect) {
			t.Errorf("Shards %d, BlockPack %v: %v, want ErrRetiredDialect", opts.Shards, opts.BlockPack, err)
		}
		if r, rerr := NewReader(bytes.NewReader(buf.Bytes())); rerr == nil {
			if _, rerr = r.ReadFrame(); rerr == nil {
				t.Errorf("Shards %d, BlockPack %v: the stream holds a frame", opts.Shards, opts.BlockPack)
			}
		}
	}
}
