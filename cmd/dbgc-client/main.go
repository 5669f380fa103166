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

func main() {
	server := flag.String("server", "localhost:7045", "dbgc-server address")
	servers := flag.String("servers", "", "comma-separated server addresses in preference order (failover mode; overrides -server)")
	tenant := flag.String("tenant", "", "tenant name announced to the server (empty = server default tenant)")
	sceneKind := flag.String("scene", string(lidar.City), "scene preset")
	frames := flag.Int("frames", 10, "number of frames to capture and send")
	q := flag.Float64("q", 0.02, "error bound in meters")
	rate := flag.Float64("rate", 10, "sensor frame rate (frames/second); 0 = as fast as possible")
	queryBox := flag.String("query", "", "after sending, query frame 0 for x0,y0,z0,x1,y1,z1")
	window := flag.Int("window", 8, "max unacknowledged frames in flight")
	ackTimeout := flag.Duration("ack-timeout", 5*time.Second, "resend frames unacked after this long")
	partial := flag.Bool("partial", false, "skip frames the server permanently rejects instead of aborting the run")
	maxPoints := flag.Int64("max-points", 0, "verify each frame decodes under this point limit before sending (0 = no verification)")
	memBudget := flag.Int64("mem-budget", 0, "verify each frame decodes under this memory budget before sending (0 = no verification)")
	flag.Parse()

	scene, err := lidar.NewScene(lidar.SceneKind(*sceneKind), 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lidar.HDL64E()
	opts := dbgc.SensorOptions(*q, cfg.Meta())

	ropts := reliable.Options{
		Tenant:      *tenant,
		MaxInFlight: *window,
		AckTimeout:  *ackTimeout,
		Logf:        log.Printf,
	}
	if *servers != "" {
		ropts.Addrs = strings.Split(*servers, ",")
		ropts.DialTo = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	} else {
		ropts.Dial = func() (net.Conn, error) { return net.Dial("tcp", *server) }
	}
	cli, err := reliable.NewClient(ropts)
	if err != nil {
		log.Fatal(err)
	}

	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}
	var totalRaw, totalCompressed, rejected int
	start := time.Now()
	limits := dbgc.DecodeLimits{MaxPoints: *maxPoints, MemBudget: *memBudget}
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
			if *partial && errors.Is(err, reliable.ErrFrameRejected) {
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
		if limits.MaxPoints > 0 || limits.MemBudget > 0 {
			// Pre-send check: a frame that exceeds the server's decode
			// limits would be nacked on arrival; catch it here instead.
			if _, err := dbgc.DecompressWith(data, dbgc.DecompressOptions{Limits: limits}); err != nil {
				return compressedFrame{}, fmt.Errorf("frame %d exceeds decode limits: %w", j.seq, err)
			}
		}
		return compressedFrame{
			seq: j.seq, points: len(j.pc), rawSize: j.pc.RawSize(),
			data: data, stats: stats,
		}, nil
	}
	pipe := framepipe.New(compressOne, deliver)
	for seq := 0; seq < *frames; seq++ {
		frameStart := time.Now()
		pipe.Submit(captureJob{seq: seq, pc: cfg.Simulate(scene, int64(seq+1))})
		if interval > 0 {
			if sleep := interval - time.Since(frameStart); sleep > 0 {
				time.Sleep(sleep)
			}
		}
	}
	pipe.Drain()
	if *queryBox != "" {
		var b dbgc.AABB
		if _, err := fmt.Sscanf(*queryBox, "%f,%f,%f,%f,%f,%f",
			&b.Min.X, &b.Min.Y, &b.Min.Z, &b.Max.X, &b.Max.Y, &b.Max.Z); err != nil {
			log.Fatalf("bad -query %q: %v", *queryBox, err)
		}
		resp, err := cli.Query(netproto.Query{Seq: 0, Box: b})
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		fmt.Printf("server returned %d points for frame 0 in box %s\n", len(resp.Payload)/16, *queryBox)
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
		log.Printf("%d of %d frames were undeliverable and skipped", rejected, *frames)
	}
	fmt.Fprintf(os.Stdout, "sent %d frames in %v: %d raw bytes -> %d compressed (ratio %.2f), avg bandwidth %.2f Mbps\n",
		*frames-rejected, elapsed.Round(time.Millisecond), totalRaw, totalCompressed,
		float64(totalRaw)/float64(totalCompressed),
		float64(totalCompressed)*8/elapsed.Seconds()/1e6)
}
