package store

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrGroupClosed reports a Commit against a closed Group.
var ErrGroupClosed = errors.New("store: commit group closed")

// Group batches fsyncs across stores: concurrent Commit calls against the
// same store — typically many ingest sessions across many tenant shards —
// coalesce into a single Sync per store per round, so durability costs one
// fsync per shard per batch instead of one per frame. With a positive
// Interval the committer additionally waits that long before each round to
// widen the batch (classic group commit); with Interval zero a round
// starts as soon as the previous one finishes.
//
// Commit provides the "acked means durable" contract: it is called after
// Append returned and returns only after a Sync that began after the call,
// so every write the caller finished beforehand is on stable storage. Sync
// does not hold the store's index lock, so other sessions — and the other
// queued frames of the same session — append while a round is on the disk,
// and the next round carries all of them on one fsync.
type Group struct {
	interval time.Duration

	// OnError, when set before the first Commit, is called with every
	// fsync failure the committer observes. Called from the committer
	// goroutine; must not block.
	OnError func(error)

	mu      sync.Mutex
	pending map[*Store]*commitBatch
	wake    chan struct{}
	closed  bool
	done    chan struct{}

	// commits and rounds count Commit calls and fsync rounds, so callers
	// can report the achieved batching factor.
	commits uint64
	rounds  uint64

	// firstErr and errCount make fsync failures sticky: each waiter gets
	// its round's error, and the first is latched here too, so a dying
	// disk degrades the node (Err, /healthz) and not only the frames that
	// happened to be in the failing round.
	firstErr error
	errCount uint64
}

type commitBatch struct {
	done chan struct{}
	err  error
}

// NewGroup starts a committer. interval <= 0 commits as fast as the disk
// allows (still coalescing whatever arrives during the previous round).
func NewGroup(interval time.Duration) *Group {
	g := &Group{
		interval: interval,
		pending:  make(map[*Store]*commitBatch),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go g.run()
	return g
}

// Commit makes every write to st completed before this call durable,
// sharing the fsync with every other Commit in the same round.
func (g *Group) Commit(st *Store) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrGroupClosed
	}
	g.commits++
	b, ok := g.pending[st]
	if !ok {
		b = &commitBatch{done: make(chan struct{})}
		g.pending[st] = b
	}
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	<-b.done
	return b.err
}

// Stats returns (Commit calls, fsync rounds) so far.
func (g *Group) Stats() (commits, rounds uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commits, g.rounds
}

// Err returns the first fsync error any commit round has hit, or nil. The
// error is sticky: once a round fails, every later Err call reports it
// (health endpoints treat a non-nil Err as a degraded store) until the
// process restarts with a healthy disk.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.firstErr
}

// ErrCount returns how many fsync failures the committer has observed.
func (g *Group) ErrCount() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.errCount
}

// noteErr latches a round failure and reports it to OnError.
func (g *Group) noteErr(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errCount++
	g.mu.Unlock()
	if g.OnError != nil {
		g.OnError(err)
	}
}

// Close flushes every pending batch and stops the committer.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.done
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	<-g.done
	return nil
}

func (g *Group) run() {
	defer close(g.done)
	for {
		<-g.wake
		// The round that just ended woke its waiters, and they and every
		// other handler ready to run are about to Commit: let them, or a
		// fast disk degenerates to one commit a round. Costs nothing idle.
		runtime.Gosched()
		if g.interval > 0 {
			// Let the batch widen before paying for the fsyncs.
			time.Sleep(g.interval)
		}
		g.mu.Lock()
		batch := g.pending
		g.pending = make(map[*Store]*commitBatch)
		if len(batch) > 0 {
			g.rounds++
		}
		closed := g.closed
		g.mu.Unlock()
		for st, b := range batch {
			b.err = st.Sync()
			g.noteErr(b.err)
			close(b.done)
		}
		if closed {
			// No Commit joins after the round that saw closed: one that
			// raced Close either was in it or got ErrGroupClosed.
			return
		}
	}
}
