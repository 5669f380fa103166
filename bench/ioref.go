package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// ioRefBytes is the message size of the I/O reference: a typical
// compressed frame.
const ioRefBytes = 75 << 10

// ioRef is the harness's reference for the service path, the way refKernel
// is for the codec: a loopback TCP connection to a goroutine that appends
// each message to a file of its own, fsyncs it and answers one byte.
type ioRef struct {
	conn net.Conn
	ln   net.Listener
	done chan error
	msg  []byte
	ack  [1]byte
}

func newIORef(dir string) (*ioRef, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "ioref.log"))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &ioRef{ln: ln, done: make(chan error, 1), msg: make([]byte, ioRefBytes)}
	for i := range r.msg {
		r.msg[i] = byte(i * 131)
	}
	go func() {
		defer f.Close()
		c, err := ln.Accept()
		if err != nil {
			r.done <- err
			return
		}
		defer c.Close()
		r.done <- serveIORef(c, f)
	}()
	if r.conn, err = net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second); err != nil {
		ln.Close()
		return nil, err
	}
	return r, nil
}

// serveIORef appends every message to f, makes it durable and answers one
// byte, until the connection is closed between two messages.
func serveIORef(c net.Conn, f *os.File) error {
	buf := make([]byte, ioRefBytes)
	for {
		if _, err := io.ReadFull(c, buf); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if _, err := f.Write(buf); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if _, err := c.Write(buf[:1]); err != nil {
			return err
		}
	}
}

// op sends one message and waits for the durable answer.
func (r *ioRef) op() (time.Duration, error) {
	t := time.Now()
	if _, err := r.conn.Write(r.msg); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(r.conn, r.ack[:]); err != nil {
		return 0, err
	}
	return time.Since(t), nil
}

func (r *ioRef) close() error {
	r.conn.Close()
	r.ln.Close()
	if err := <-r.done; err != nil {
		return fmt.Errorf("io reference: %w", err)
	}
	return nil
}

// The host's disk and its wake-up latency change under the benchmark just
// as its CPU does: one fsync of 75 KB reads 1 ms for a minute and 3 ms for
// the next, the median replicated ack follows it from 2.5 to 8.7 ms on one
// commit and the saturated rate from 1100 to 480 frames/s. So the write
// path of the ingest workloads is bracketed by a yardstick with the cost
// structure of one replicated durable ack and none of the program's code —
// a message to one ioRef, then to a second: two loopback hops, two appends,
// two fsyncs in series — and reported as on a host where the yardstick
// reads yardNominalMS. A latency is a sum of steps in series, of which the
// yardstick measures the host's: t − yardstick now + yardNominalMS. A rate
// is a ratio: time per frame × yardNominalMS / yardstick now. There is one
// chain per stream, because the yardstick tracks the workload only when it
// is read under the workload's conditions: see ingestPhase.
const yardNominalMS = 2.0

// yardOps is how many chained round trips make one yardstick reading (their
// median).
const yardOps = 5

type yardstick struct {
	chains   [][2]*ioRef
	parallel bool          // every chain at once, not just the first
	gap      time.Duration // idle time before each round trip
	last     float64       // ms of the most recent reading
	lastAt   time.Time     // when it ended
	all      []float64     // every reading, ms
}

func newYardstick(dir string, chains int) (*yardstick, error) {
	y := &yardstick{}
	for c := 0; c < chains; c++ {
		a, err := newIORef(filepath.Join(dir, fmt.Sprintf("%da", c)))
		if err != nil {
			y.close()
			return nil, err
		}
		b, err := newIORef(filepath.Join(dir, fmt.Sprintf("%db", c)))
		if err != nil {
			a.close()
			y.close()
			return nil, err
		}
		y.chains = append(y.chains, [2]*ioRef{a, b})
	}
	return y, nil
}

// trips makes yardOps round trips down one chain and returns their times.
func (y *yardstick) trips(chain [2]*ioRef) ([]float64, error) {
	v := make([]float64, yardOps)
	for i := range v {
		time.Sleep(y.gap)
		da, err := chain[0].op()
		if err != nil {
			return nil, err
		}
		db, err := chain[1].op()
		if err != nil {
			return nil, err
		}
		v[i] = ms(da + db)
	}
	return v, nil
}

func (y *yardstick) read() (float64, error) {
	chains := y.chains[:1]
	if y.parallel {
		chains = y.chains
	}
	times := make([][]float64, len(chains))
	errs := make([]error, len(chains))
	var wg sync.WaitGroup
	for c, chain := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[c], errs[c] = y.trips(chain)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	y.last, y.lastAt = median(slices.Concat(times...)), time.Now()
	y.all = append(y.all, y.last)
	return y.last, nil
}

// bracket runs fn between two readings (the previous bracket's closing one
// serves as the opening one while it is fresh) and returns their mean: what
// the host's I/O path cost, in ms, while fn ran.
func (y *yardstick) bracket(fn func()) (float64, error) {
	before := y.last
	if y.lastAt.IsZero() || time.Since(y.lastAt) > refStale {
		var err error
		if before, err = y.read(); err != nil {
			return 0, err
		}
	}
	fn()
	after, err := y.read()
	if err != nil {
		return 0, err
	}
	return (before + after) / 2, nil
}

func (y *yardstick) close() error {
	var errs []error
	for _, chain := range y.chains {
		errs = append(errs, chain[0].close(), chain[1].close())
	}
	return errors.Join(errs...)
}
