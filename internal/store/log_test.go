package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
)

// readSinceIndexWalk is ReadSince as it was before the record log: walk the
// live index, keep what starts at or past from, sort by offset. Kept as the
// oracle the log-backed ReadSince is held to; it never returned shadowed
// copies and its cost grew with the segment.
func readSinceIndexWalk(s *Store, from int64) []RecordInfo {
	s.mu.Lock()
	var infos []RecordInfo
	for _, i := range s.index {
		if info := s.log[i]; info.Off >= from {
			infos = append(infos, info)
		}
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Off < infos[j].Off })
	return infos
}

// TestReadSinceMatchesIndexWalk runs seeded schedules of append, shadow,
// quarantine and reopen against one segment, and after every step reads the
// tail from a handful of offsets. The live records ReadSince returns are
// exactly the index walk's; beyond them it returns every shadowed copy, so
// the whole answer is the schedule's own append history from that offset on.
func TestReadSinceMatchesIndexWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "frames.db")
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()
			var history []RecordInfo // every record written, in order
			shadowed := 0
			for step := 0; step < 300; step++ {
				payload := make([]byte, rng.Intn(40))
				rng.Read(payload)
				seq := uint64(len(history)) // a new number…
				if len(history) > 0 && rng.Intn(3) == 0 {
					seq = history[rng.Intn(len(history))].Seq // …or one already stored
				}
				before := st.End()
				switch op := rng.Intn(10); {
				case op < 6:
					end, err := st.Append(seq, KindCompressed, payload)
					if err != nil {
						t.Fatal(err)
					}
					history = append(history, RecordInfo{Seq: seq, Kind: KindCompressed, Off: before, End: end})
				case op < 8:
					written, err := st.Quarantine(seq, payload)
					if err != nil {
						t.Fatal(err)
					}
					if written {
						history = append(history, RecordInfo{Seq: seq, Kind: KindQuarantined, Off: before, End: st.End()})
					}
				default:
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = Open(path); err != nil {
						t.Fatal(err)
					}
				}
				froms := []int64{0, st.End(), st.End() + 1}
				if len(history) > 0 {
					h := history[rng.Intn(len(history))]
					froms = append(froms, h.Off, h.Off+1, h.End)
				}
				for _, from := range froms {
					recs, err := st.ReadSince(from, 0)
					if err != nil {
						t.Fatal(err)
					}
					var got, live []RecordInfo
					for _, rec := range recs {
						got = append(got, RecordInfo{Seq: rec.Seq, Kind: rec.Kind, Off: rec.Off, End: rec.End})
						if i := st.index[rec.Seq]; st.log[i].Off == rec.Off {
							live = append(live, rec.RecordInfo)
						}
					}
					if want := readSinceIndexWalk(st, from); !slices.Equal(live, want) {
						t.Fatalf("step %d, from %d: live records %v, the index walk has %v", step, from, live, want)
					}
					first := sort.Search(len(history), func(i int) bool { return history[i].Off >= from })
					if want := history[first:]; !slices.Equal(got, want) {
						t.Fatalf("step %d, from %d: read %v, appended %v", step, from, got, want)
					}
					shadowed += len(got) - len(live)
				}
			}
			if shadowed == 0 {
				t.Error("no schedule step read a shadowed copy back")
			}
		})
	}
}

// TestReadSinceByteBound: a read stops before the record that would exceed
// maxBytes of payload, and returns one record however large.
func TestReadSinceByteBound(t *testing.T) {
	st, _ := tempStore(t)
	var ends []int64
	for seq := uint64(0); seq < 6; seq++ {
		end, err := st.Append(seq, KindCompressed, make([]byte, 10))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	for _, tc := range []struct {
		from     int64
		maxBytes int
		want     int
	}{
		{0, 0, 6}, {0, 1 << 20, 6}, {0, 35, 3}, {0, 30, 3}, {0, 5, 1}, {ends[3], 25, 2}, {ends[5], 25, 0},
	} {
		recs, err := st.ReadSince(tc.from, tc.maxBytes)
		if err != nil || len(recs) != tc.want {
			t.Errorf("ReadSince(%d, %d) = %d records, %v; want %d", tc.from, tc.maxBytes, len(recs), err, tc.want)
		}
	}
}

// BenchmarkReadSinceTail reads the last record of a segment: the catch-up
// read of a sender one record behind. The cost must not grow with what the
// segment already holds (a binary search does; the index walk it replaced
// took 3.7 µs at 350 records and 738 µs at 100,000).
func BenchmarkReadSinceTail(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			st, err := Open(filepath.Join(b.TempDir(), "frames.db"))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var last int64
			for seq := 0; seq < n; seq++ {
				last = st.End()
				if _, err := st.Append(uint64(seq), KindCompressed, make([]byte, 16)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs, err := st.ReadSince(last, 1<<20); err != nil || len(recs) != 1 {
					b.Fatalf("%d records, %v", len(recs), err)
				}
			}
		})
	}
}

// TestSubscribeAnnouncesEveryAppend: a subscriber of the shard set hears of
// every record, of shards open before it subscribed and opened after, in each
// shard's append order even with appenders racing, with the appender's own
// payload slice; a Quarantine that wrote nothing announces nothing; cancel
// ends it, and the cancel of a replaced subscription does not end its
// successor.
func TestSubscribeAnnouncesEveryAppend(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	early, err := sh.Acquire("early")
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Release("early")

	var mu sync.Mutex
	heard := map[string][]Record{}
	cancel := sh.Subscribe(func(tenant string, rec Record) {
		mu.Lock()
		heard[tenant] = append(heard[tenant], rec)
		mu.Unlock()
	})
	late, err := sh.Acquire("late")
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Release("late")

	payload := []byte("the appender's slice")
	if _, err := early.Append(1, KindCompressed, payload); err != nil {
		t.Fatal(err)
	}
	if written, err := early.Quarantine(1, []byte("never stored")); err != nil || written {
		t.Fatalf("quarantine over a good copy: written=%v, %v", written, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := late.Append(uint64(g*50+i), KindCompressed, []byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	if got := heard["early"]; len(got) != 1 || &got[0].Payload[0] != &payload[0] || got[0].CRC == 0 {
		t.Errorf("early shard announced %+v, want the one append with its own payload slice", got)
	}
	var announced []RecordInfo
	for _, rec := range heard["late"] {
		announced = append(announced, rec.RecordInfo)
	}
	mu.Unlock()
	recs, err := late.ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var appended []RecordInfo
	for _, rec := range recs {
		appended = append(appended, rec.RecordInfo)
	}
	if len(appended) != 200 || !slices.Equal(announced, appended) {
		t.Errorf("late shard: %d announcements against %d records in the segment, or in another order", len(announced), len(appended))
	}

	// A second subscription replaces the first; the first's cancel is then void.
	replaced := 0
	cancel2 := sh.Subscribe(func(string, Record) { replaced++ })
	cancel()
	if _, err := early.Append(2, KindCompressed, payload); err != nil {
		t.Fatal(err)
	}
	cancel2()
	if _, err := early.Append(3, KindCompressed, payload); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if replaced != 1 || len(heard["early"]) != 1 {
		t.Errorf("after replace and cancel: the successor heard %d appends and the first %d, want 1 and 1", replaced, len(heard["early"]))
	}
}

// TestAppendOnceSkipsTheStoredCopy: a retransmit — same sequence number,
// kind and payload — of a record a successful Sync covered appends nothing,
// announces nothing and returns the stored record's end. A copy no Sync has
// covered yet, or one a failed Sync may have dropped (even once a later Sync
// succeeds), is appended again; so is another payload or another kind under
// the number, which shadows the old record.
func TestAppendOnceSkipsTheStoredCopy(t *testing.T) {
	sh, err := OpenShards(filepath.Join(t.TempDir(), "stores"), 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sh.Acquire("acme")
	if err != nil {
		t.Fatal(err)
	}
	ff := &flakyFile{File: st.f}
	st.f = ff
	heard := 0
	sh.Subscribe(func(string, Record) { heard++ })
	appendOnce := func(seq uint64, kind byte, payload string, wantNew bool) {
		t.Helper()
		before := st.End()
		end, err := st.AppendOnce(seq, kind, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if wrote := end > before; wrote != wantNew {
			t.Fatalf("frame %d kind %d %q: appended %v, want %v", seq, kind, payload, wrote, wantNew)
		}
		if got, k, err := st.Get(seq); err != nil || string(got) != payload || k != kind {
			t.Fatalf("frame %d: Get returns kind %d %q, %v", seq, k, got, err)
		}
	}

	appendOnce(7, KindCompressed, "frame seven", true)
	appendOnce(7, KindCompressed, "frame seven", true) // not synced yet
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(8, KindCompressed, []byte("frame eight")); err != nil {
		t.Fatal(err)
	}
	appendOnce(7, KindCompressed, "frame seven", false)
	appendOnce(7, KindCompressed, "frame SEVEN", true)
	appendOnce(7, KindCompressed, "frame seven, longer", true)
	appendOnce(7, KindQuarantined, "frame seven, longer", true)
	if got := len(st.log); got != 6 || heard != 6 {
		t.Fatalf("the log holds %d records and %d were announced, want 6 and 6", got, heard)
	}

	ff.failSync.Store(true)
	if err := st.Sync(); err == nil {
		t.Fatal("injected fsync failure not reported")
	}
	ff.failSync.Store(false)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	appendOnce(8, KindCompressed, "frame eight", true) // the failed fsync may have lost it
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	appendOnce(8, KindCompressed, "frame eight", false)

	// A reopened segment trusts no copy it found: no Sync of its own
	// covered them.
	sh.Release("acme")
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(filepath.Join(sh.Dir(), "acme.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	appendOnce(8, KindCompressed, "frame eight", true)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	appendOnce(8, KindCompressed, "frame eight", false)
}
