package main

import (
	"flag"
	"io"
	"slices"
	"testing"
	"time"
)

// parse runs parseFlags on a flag set that reports instead of exiting.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("dbgc-client", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestFlagsReachOptions: a flag lands in the field of reliable.Options or
// dbgc.DecodeLimits it names, and -servers takes over from -server.
func TestFlagsReachOptions(t *testing.T) {
	o := parse(t)
	if o.Dial == nil || o.Addrs != nil || o.DialTo != nil || o.MaxInFlight != 8 || o.AckTimeout != 5*time.Second ||
		o.Tenant != "" || o.limits.MaxPoints != 0 || o.limits.MemBudget != 0 || o.Logf == nil {
		t.Errorf("defaults: %+v, limits %+v", o.Options, o.limits)
	}

	o = parse(t, "-server", "c:1", "-servers", "a:1,b:2")
	if !slices.Equal(o.Addrs, []string{"a:1", "b:2"}) || o.DialTo == nil || o.Dial != nil {
		t.Errorf("-servers a:1,b:2 beside -server c:1: Addrs %q, DialTo set %v, Dial set %v", o.Addrs, o.DialTo != nil, o.Dial != nil)
	}

	o = parse(t, "-window", "3", "-ack-timeout", "750ms", "-tenant", "acme", "-max-points", "9", "-mem-budget", "1024")
	if o.MaxInFlight != 3 || o.AckTimeout != 750*time.Millisecond || o.Tenant != "acme" {
		t.Errorf("reliable.Options: %+v", o.Options)
	}
	if o.limits.MaxPoints != 9 || o.limits.MemBudget != 1024 {
		t.Errorf("decode limits: %+v", o.limits)
	}
}
