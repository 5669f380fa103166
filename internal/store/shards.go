package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrShardsClosed reports use of a closed shard set.
var ErrShardsClosed = errors.New("store: shards closed")

// shardExt is the file extension of one tenant's segment inside the store
// directory.
const shardExt = ".db"

// Shards manages one Store per tenant inside a store directory
// (dir/<tenant>.db), opened lazily on first use and bounded to MaxOpen
// simultaneously open files: when the bound is hit, the least-recently-used
// idle shard is synced and closed. Shards a caller currently holds via
// Acquire are pinned and never evicted, so eviction can never close a file
// out from under an in-flight append.
type Shards struct {
	dir string
	// MaxOpen bounds simultaneously open shard files (default 64). The
	// bound is soft against pins: if every open shard is pinned, opening
	// one more is allowed rather than failing the ingest.
	maxOpen int
	// OpenFile, when non-nil, opens the backing file for a shard path
	// instead of the default os.OpenFile — the seam the chaos harness
	// uses to put a faultnet.Disk under every shard.
	OpenFile func(path string) (File, error)

	mu     sync.Mutex
	open   map[string]*shard
	sub    *subscription
	useSeq uint64
	closed bool
}

// subscription is a Subscribe call; its address tells it from a later one.
type subscription struct {
	fn func(tenant string, rec Record)
}

type shard struct {
	st      *Store
	refs    int
	lastUse uint64
}

// OpenShards creates dir if needed (fsyncing its parent, same contract as
// Open) and returns the shard set.
func OpenShards(dir string, maxOpen int) (*Shards, error) {
	if maxOpen <= 0 {
		maxOpen = 64
	}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := syncDir(filepath.Dir(filepath.Clean(dir))); err != nil {
			return nil, fmt.Errorf("store: syncing parent of %s: %w", dir, err)
		}
	}
	return &Shards{dir: dir, maxOpen: maxOpen, open: make(map[string]*shard)}, nil
}

// Dir returns the store directory.
func (s *Shards) Dir() string { return s.dir }

// Path returns the segment path a tenant maps to.
func (s *Shards) Path(tenant string) string {
	return filepath.Join(s.dir, tenant+shardExt)
}

// Acquire returns the tenant's store, opening it if necessary, and pins it
// until the matching Release. Tenant names must satisfy
// netproto.ValidTenant-style rules; the caller (the ingest server) is
// expected to have validated them already, so here only path traversal is
// rejected outright.
func (s *Shards) Acquire(tenant string) (*Store, error) {
	if strings.ContainsAny(tenant, "/\\") || tenant == "" || tenant[0] == '.' {
		return nil, fmt.Errorf("store: invalid tenant name %q", tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShardsClosed
	}
	s.useSeq++
	if sh, ok := s.open[tenant]; ok {
		sh.refs++
		sh.lastUse = s.useSeq
		return sh.st, nil
	}
	if err := s.evictLocked(len(s.open) + 1 - s.maxOpen); err != nil {
		return nil, err
	}
	path := s.Path(tenant)
	var st *Store
	var err error
	if s.OpenFile != nil {
		var f File
		if f, err = s.OpenFile(path); err == nil {
			st, err = OpenWith(f)
		}
	} else {
		st, err = Open(path)
	}
	if err != nil {
		return nil, fmt.Errorf("store: opening shard %q: %w", tenant, err)
	}
	st.setAnnounce(s.announcerLocked(tenant))
	s.open[tenant] = &shard{st: st, refs: 1, lastUse: s.useSeq}
	return st, nil
}

// Subscribe has fn told of every record appended from now on to any shard
// of the set, open already or opened later: the tenant, the record's info
// (the CRC Append computed included) and the payload slice Append was given.
// fn runs under the appending store's mutex, so in that shard's append order
// and before any reader can see the record; it must not block and must not
// call into the store. The set has one subscriber — the replication sender —
// and a later Subscribe replaces an earlier one; cancel removes fn unless
// that has happened.
func (s *Shards) Subscribe(fn func(tenant string, rec Record)) (cancel func()) {
	sub := &subscription{fn: fn}
	s.mu.Lock()
	s.setSubLocked(sub)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.sub == sub {
			s.setSubLocked(nil)
		}
	}
}

func (s *Shards) setSubLocked(sub *subscription) {
	s.sub = sub
	for tenant, sh := range s.open {
		sh.st.setAnnounce(s.announcerLocked(tenant))
	}
}

// announcerLocked binds the subscriber to one tenant's store (nil without a
// subscriber).
func (s *Shards) announcerLocked(tenant string) func(Record) {
	if s.sub == nil {
		return nil
	}
	fn := s.sub.fn
	return func(rec Record) { fn(tenant, rec) }
}

// Release unpins a store returned by Acquire.
func (s *Shards) Release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh, ok := s.open[tenant]; ok && sh.refs > 0 {
		sh.refs--
	}
}

// evictLocked closes up to n least-recently-used unpinned shards. Fewer —
// including zero — are closed when everything else is pinned; the open-file
// bound is a target, not a correctness constraint.
func (s *Shards) evictLocked(n int) error {
	for ; n > 0; n-- {
		var victim string
		var oldest uint64
		for name, sh := range s.open {
			if sh.refs > 0 {
				continue
			}
			if victim == "" || sh.lastUse < oldest {
				victim, oldest = name, sh.lastUse
			}
		}
		if victim == "" {
			return nil
		}
		sh := s.open[victim]
		delete(s.open, victim)
		if err := sh.st.Close(); err != nil {
			return fmt.Errorf("store: evicting shard %q: %w", victim, err)
		}
	}
	return nil
}

// EachOpen calls fn for every currently open shard (pinning each for the
// duration of its call). Used for group commit and metrics.
func (s *Shards) EachOpen(fn func(tenant string, st *Store) error) error {
	s.mu.Lock()
	names := make([]string, 0, len(s.open))
	for name, sh := range s.open {
		sh.refs++
		names = append(names, name)
	}
	s.mu.Unlock()
	var firstErr error
	for _, name := range names {
		s.mu.Lock()
		sh, ok := s.open[name]
		var st *Store
		if ok {
			st = sh.st
		}
		s.mu.Unlock()
		if st != nil {
			if err := fn(name, st); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.Release(name)
	}
	return firstErr
}

// SyncAll fsyncs every open shard — one batched pass across tenants.
func (s *Shards) SyncAll() error {
	return s.EachOpen(func(_ string, st *Store) error { return st.Sync() })
}

// OpenCount returns the number of currently open shard files.
func (s *Shards) OpenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Tenants lists every tenant with a segment in the directory, open or not.
func (s *Shards) Tenants() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, shardExt) {
			out = append(out, strings.TrimSuffix(name, shardExt))
		}
	}
	return out, nil
}

// Close syncs and closes every open shard. Later operations fail with
// ErrShardsClosed.
func (s *Shards) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for name, sh := range s.open {
		if err := sh.st.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("store: closing shard %q: %w", name, err)
		}
	}
	s.open = nil
	return firstErr
}
