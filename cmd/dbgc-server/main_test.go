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
// the storage, durability and replication modes an earlier server had are
// not flags any more.
func TestFlagsReachConfig(t *testing.T) {
	o, _, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if o.Verify || o.Dir != "frames" || o.Limits.MaxPoints == 0 || o.QueueDepth != 16 || o.ServerConfig.Logf == nil ||
		o.SyncTimeout != node.DefaultSyncTimeout {
		t.Errorf("defaults: %+v", o.Config)
	}
	o, _, err = parse("-verify", "-max-points", "9", "-replica-of", "10.0.0.2:7045",
		"-sync-timeout", "3s", "-tenants", "3", "-http", ":1", "-drain-timeout", "2s")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Verify || o.Limits.MaxPoints != 9 || o.Addr != "10.0.0.2:7045" || o.SyncTimeout != 3*time.Second ||
		o.MaxTenants != 3 || o.httpAddr != ":1" || o.drainTimeout != 2*time.Second {
		t.Errorf("flags did not reach the configuration: %+v", o)
	}
	retired := [][]string{{"-decompress"}, {"-partial"}, {"-fsync", "always"}, {"-sync-repl"}, {"-wm-every", "16"}}
	for _, args := range retired {
		if _, out, err := parse(args...); err == nil || !strings.Contains(out, "flag provided but not defined: "+args[0]) {
			t.Errorf("%s: %v, %q", args, err, out)
		}
	}
	_, usage, err := parse("-h")
	if err != flag.ErrHelp || !strings.Contains(usage, "-verify") {
		t.Errorf("-h: %v\n%s", err, usage)
	}
	for _, args := range retired {
		if strings.Contains(usage, args[0]) {
			t.Errorf("-h names the retired %s:\n%s", args[0], usage)
		}
	}
}

// TestConflictingRolesRefusedBeforeTheStoreDirExists: a command line whose
// roles conflict — a node cannot be both a primary and a follower — is
// refused by node.Open with nothing created.
func TestConflictingRolesRefusedBeforeTheStoreDirExists(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"replica-of and follower", "mutually exclusive", []string{"-replica-of", "127.0.0.1:1", "-follower"}},
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
				t.Errorf("refusal %q does not say %s", err, tc.want)
			}
			if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
				t.Errorf("a refused command line created %s", dir)
			}
		})
	}
}
