package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbgc/internal/node"
)

// parse runs parseFlags on a flag set that reports instead of exiting, and
// returns what it printed.
func parse(args ...string) (options, string, error) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("dbgc-server", flag.ContinueOnError)
	fs.SetOutput(&out)
	o, err := parseFlags(fs, args)
	return o, out.String(), err
}

// TestFlagsReachConfig: a flag lands in the field of node.Config it names;
// the storage modes an earlier server had are not flags any more.
func TestFlagsReachConfig(t *testing.T) {
	o, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if o.Verify || o.Fsync != "off" || o.Dir != "frames" || o.Limits.MaxPoints == 0 || o.QueueDepth != 16 || o.ServerConfig.Logf == nil {
		t.Errorf("defaults: %+v", o.Config)
	}
	o, _, err = parse("-verify", "-max-points", "9", "-fsync", "always", "-replica-of", "10.0.0.2:7045",
		"-sync-repl", "-tenants", "3", "-http", ":1", "-drain-timeout", "2s")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Verify || o.Limits.MaxPoints != 9 || o.Fsync != "always" || o.Addr != "10.0.0.2:7045" || !o.SyncRepl ||
		o.MaxTenants != 3 || o.httpAddr != ":1" || o.drainTimeout != 2*time.Second {
		t.Errorf("flags did not reach the configuration: %+v", o)
	}
	for _, retired := range []string{"-decompress", "-partial"} {
		if _, out, err := parse(retired); err == nil || !strings.Contains(out, "flag provided but not defined: "+retired) {
			t.Errorf("%s: %v, %q", retired, err, out)
		}
	}
	if _, usage, err := parse("-h"); err != flag.ErrHelp || !strings.Contains(usage, "-verify") ||
		strings.Contains(usage, "-decompress") || strings.Contains(usage, "-partial") {
		t.Errorf("-h: %v\n%s", err, usage)
	}
}

// TestSyncReplRefusedBeforeTheStoreDirExists: a -sync-repl whose ack would
// mean one disk is refused by node.Open with nothing created.
func TestSyncReplRefusedBeforeTheStoreDirExists(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"no follower", "-replica-of", []string{"-sync-repl", "-fsync", "always"}},
		{"fsync off", "-fsync always", []string{"-sync-repl", "-replica-of", "127.0.0.1:1"}},
		{"fsync interval", "-fsync always", []string{"-sync-repl", "-replica-of", "127.0.0.1:1", "-fsync", "500ms"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "frames")
			o, _, err := parse(append(tc.args, "-listen", "127.0.0.1:0", "-store-dir", dir)...)
			if err != nil {
				t.Fatal(err)
			}
			n, err := node.Open(o.Config)
			if err == nil {
				n.Abort()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("refusal %q does not name %s", err, tc.want)
			}
			if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
				t.Errorf("a refused command line created %s", dir)
			}
		})
	}
}
