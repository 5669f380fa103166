// Command dbgc-client is the client half of the DBGC system (Figure 2): it
// pulls frames from the (simulated) sensor, compresses them, and streams
// the bit sequences to a dbgc-server over TCP.
//
// Capture stays paced on the main goroutine while the frames behind it
// compress, as many side by side as GOMAXPROCS allows; they are sent in
// capture order, each when a later capture (or the end of the run) finds it
// finished.
//
// Every frame is acknowledged by the server and retransmitted across nacks,
// timeouts, and reconnects.
//
// Against a replicated deployment, -servers lists primary and follower
// (comma-separated, primary first): the client fails over to the next
// address whenever a connection attempt fails or the node refuses it busy
// (an unpromoted follower does), and sticks with whichever admits it.
//
// Usage:
//
//	dbgc-client [-server localhost:7045 | -servers host:a,host:b]
//	            [-scene kitti-city] [-frames 10]
//	            [-q 0.02] [-rate 10] [-window 8] [-ack-timeout 5s]
//	            [-partial] [-max-points n] [-mem-budget bytes]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"dbgc"
	"dbgc/internal/framepipe"
	"dbgc/internal/lidar"
	"dbgc/internal/netproto"
	"dbgc/internal/reliable"
)

// captureJob and compressedFrame carry frames through the compression
// window.
type captureJob struct {
	seq int
	pc  dbgc.PointCloud
}

type compressedFrame struct {
	seq, points, rawSize int
	data                 []byte
	stats                *dbgc.Stats
}

// options is the command line: the reliable client's options, the decode
// limits a frame is checked against before it is sent, and the run itself.
type options struct {
	reliable.Options
	limits  dbgc.DecodeLimits
	scene   string
	frames  int
	q, rate float64
	query   string
	partial bool
}

// parseFlags defines the client's flags on fs and parses args into options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	server := fs.String("server", "localhost:7045", "dbgc-server address")
	servers := fs.String("servers", "", "comma-separated server addresses in preference order (failover mode; overrides -server)")
	fs.StringVar(&o.Tenant, "tenant", "", "tenant name announced to the server (empty = server default tenant)")
	fs.StringVar(&o.scene, "scene", string(lidar.City), "scene preset")
	fs.IntVar(&o.frames, "frames", 10, "number of frames to capture and send")
	fs.Float64Var(&o.q, "q", 0.02, "error bound in meters")
	fs.Float64Var(&o.rate, "rate", 10, "sensor frame rate (frames/second); 0 = as fast as possible")
	fs.StringVar(&o.query, "query", "", "after sending, query frame 0 for x0,y0,z0,x1,y1,z1")
	fs.IntVar(&o.MaxInFlight, "window", 8, "max unacknowledged frames in flight")
	fs.DurationVar(&o.AckTimeout, "ack-timeout", 5*time.Second, "resend frames unacked after this long")
	fs.BoolVar(&o.partial, "partial", false, "skip frames the server permanently rejects instead of aborting the run")
	fs.Int64Var(&o.limits.MaxPoints, "max-points", 0, "verify each frame decodes under this point limit before sending (0 = no verification)")
	fs.Int64Var(&o.limits.MemBudget, "mem-budget", 0, "verify each frame decodes under this memory budget before sending (0 = no verification)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.Logf = log.Printf
	if *servers != "" {
		o.Addrs = strings.Split(*servers, ",")
		o.DialTo = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	} else {
		o.Dial = func() (net.Conn, error) { return net.Dial("tcp", *server) }
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	scene, err := lidar.NewScene(lidar.SceneKind(o.scene), 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lidar.HDL64E()
	opts := dbgc.SensorOptions(o.q, cfg.Meta())
	cli, err := reliable.NewClient(o.Options)
	if err != nil {
		log.Fatal(err)
	}

	var interval time.Duration
	if o.rate > 0 {
		interval = time.Duration(float64(time.Second) / o.rate)
	}
	var totalRaw, totalCompressed, rejected int
	start := time.Now()
	deliver := func(c compressedFrame, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if err := cli.Send(netproto.Message{
			Kind:    netproto.KindCompressed,
			Seq:     uint64(c.seq),
			Payload: c.data,
		}); err != nil {
			// With -partial an undeliverable frame (rejected by the server
			// past its retry budget) is logged and skipped; the connection
			// and the rest of the stream continue.
			if o.partial && errors.Is(err, reliable.ErrFrameRejected) {
				rejected++
				log.Printf("frame %d: undeliverable, skipping: %v", c.seq, err)
				return
			}
			log.Fatalf("sending frame %d: %v", c.seq, err)
		}
		totalRaw += c.rawSize
		totalCompressed += len(c.data)
		s := c.stats
		log.Printf("frame %d: %d points, %d bytes (ratio %.2f), compress %v",
			c.seq, c.points, len(c.data), s.CompressionRatio(),
			(s.DEN + s.OCT + s.COR + s.ORG + s.SPA + s.OUT).Round(time.Millisecond))
	}
	compressOne := func(j captureJob) (compressedFrame, error) {
		data, stats, err := dbgc.Compress(j.pc, opts)
		if err != nil {
			return compressedFrame{}, fmt.Errorf("compressing frame %d: %w", j.seq, err)
		}
		if o.limits.MaxPoints > 0 || o.limits.MemBudget > 0 {
			// Pre-send check: a frame that exceeds the server's decode
			// limits would be nacked on arrival; catch it here instead.
			if _, err := dbgc.DecompressWith(data, dbgc.DecompressOptions{Limits: o.limits}); err != nil {
				return compressedFrame{}, fmt.Errorf("frame %d exceeds decode limits: %w", j.seq, err)
			}
		}
		return compressedFrame{
			seq: j.seq, points: len(j.pc), rawSize: j.pc.RawSize(),
			data: data, stats: stats,
		}, nil
	}
	pipe := framepipe.New(compressOne, deliver)
	for seq := 0; seq < o.frames; seq++ {
		frameStart := time.Now()
		pipe.Submit(captureJob{seq: seq, pc: cfg.Simulate(scene, int64(seq+1))})
		if interval > 0 {
			if sleep := interval - time.Since(frameStart); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
	pipe.Drain()
	if o.query != "" {
		var b dbgc.AABB
		if _, err := fmt.Sscanf(o.query, "%f,%f,%f,%f,%f,%f",
			&b.Min.X, &b.Min.Y, &b.Min.Z, &b.Max.X, &b.Max.Y, &b.Max.Z); err != nil {
			log.Fatalf("bad -query %q: %v", o.query, err)
		}
		resp, err := cli.Query(netproto.Query{Seq: 0, Box: b})
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		fmt.Printf("server returned %d points for frame 0 in box %s\n", len(resp.Payload)/16, o.query)
	}
	if err := cli.Close(); err != nil {
		log.Fatalf("finishing session: %v", err)
	}
	if st := cli.Stats(); st.Resent > 0 || st.Reconnects > 1 || st.Failovers > 0 {
		log.Printf("reliability: %d/%d frames acked, %d resent, %d nacks, %d connections, %d failovers",
			st.Acked, st.Sent, st.Resent, st.Nacked, st.Reconnects, st.Failovers)
	}
	elapsed := time.Since(start)
	if rejected > 0 {
		log.Printf("%d of %d frames were undeliverable and skipped", rejected, o.frames)
	}
	fmt.Fprintf(os.Stdout, "sent %d frames in %v: %d raw bytes -> %d compressed (ratio %.2f), avg bandwidth %.2f Mbps\n",
		o.frames-rejected, elapsed.Round(time.Millisecond), totalRaw, totalCompressed,
		float64(totalRaw)/float64(totalCompressed),
		float64(totalCompressed)*8/elapsed.Seconds()/1e6)
}
