package main

import (
	"flag"
	"testing"
)

// parse builds the options a command line would, on a directory of the
// test's own.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("dbgc-loadgen", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	o.dir = t.TempDir()
	return o
}

// requireNoLoss is both scenarios' contract: every client finished, every
// scenario assertion held (the failover scenario counts a /healthz that
// missed ok → degraded → recovered as a failure), and every acked frame came
// back intact from the cold-reopened shards.
func requireNoLoss(t *testing.T, res benchResult, err error, frames int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.LostFrames != 0 || res.FailedClients != 0 {
		t.Fatalf("%d acked frames lost, %d client or assertion failures", res.LostFrames, res.FailedClients)
	}
	if res.VerifiedFrames != frames {
		t.Errorf("%d frames verified, want all %d", res.VerifiedFrames, frames)
	}
}

// TestSoakScenario crashes a real node (internal/node) once under traffic
// and restarts it on the same address.
func TestSoakScenario(t *testing.T) {
	res, err := runSoak(parse(t, "-tenants", "2", "-clients", "1", "-frames", "40", "-crashes", "1"))
	requireNoLoss(t, res, err, 80)
	if len(res.Crashes) != 1 || res.Crashes[0].Shards == 0 {
		t.Errorf("crashes %+v, want one that took shards down", res.Crashes)
	}
	if res.FramesAcked < 80 {
		t.Errorf("the nodes counted %d acks for 80 frames", res.FramesAcked)
	}
}

// TestFailoverScenario runs the replicated pair through link loss, primary
// kill and promotion; the /healthz transitions are the node's own probes.
func TestFailoverScenario(t *testing.T) {
	res, err := runFailover(parse(t, "-tenants", "2", "-clients", "1", "-frames", "30"))
	requireNoLoss(t, res, err, 60)
	fo := res.Failover
	if fo == nil {
		t.Fatal("no failover report")
	}
	if fo.PromotedEpoch != 1 || fo.AckedFrames != 60 {
		t.Errorf("promoted to epoch %d with %d sync-acked frames, want epoch 1 and 60", fo.PromotedEpoch, fo.AckedFrames)
	}
	if fo.Receiver.Records == 0 || !fo.Receiver.Promoted {
		t.Errorf("follower receiver %+v, want applied records and a promotion", fo.Receiver)
	}
}
