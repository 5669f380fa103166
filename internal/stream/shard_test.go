package stream

import (
	"bytes"
	"testing"

	"dbgc"
)

// TestStreamShardedFrames: a stream packed with sharded entropy options
// carries v3 frames that read back to the same clouds as a legacy stream.
func TestStreamShardedFrames(t *testing.T) {
	frames := testFrames(t, 3)
	pack := func(opts dbgc.Options) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range frames {
			if err := w.WriteFrame(pc, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	legacy := pack(dbgc.DefaultOptions(0.02))
	opts := dbgc.DefaultOptions(0.02)
	opts.Shards = 4
	sharded := pack(opts)

	read := func(data []byte) []Frame {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, r)
	}
	want, got := read(legacy), read(sharded)
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !cloudsEqual(got[i].Cloud, want[i].Cloud) {
			t.Fatalf("frame %d differs from the legacy stream's", i)
		}
	}
}
