package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func pass(detail string) Probe { return func() (string, bool) { return detail, true } }
func fail(detail string) Probe { return func() (string, bool) { return detail, false } }

// get serves one request through the handler NewServer builds and decodes
// the JSON body into out.
func get(t *testing.T, srv *http.Server, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", path, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s: body %q: %v", path, rec.Body, err)
	}
	return rec.Code
}

func TestHealthz(t *testing.T) {
	type probe struct {
		name string
		p    Probe
	}
	cases := []struct {
		name   string
		probes []probe
		code   int
		want   Status
	}{
		{"no probes", nil, http.StatusOK, Status{Status: "ok"}},
		{
			"all ok",
			[]probe{{"store", pass("")}, {"replication", pass("lag 0 bytes")}},
			http.StatusOK,
			Status{Status: "ok", Detail: map[string]string{"replication": "lag 0 bytes"}},
		},
		{
			"one failing",
			[]probe{{"store", pass("")}, {"replication", fail("link down")}, {"role", pass("follower")}},
			http.StatusServiceUnavailable,
			Status{
				Status:  "degraded",
				Reasons: []string{"replication: link down"},
				Detail:  map[string]string{"replication": "link down", "role": "follower"},
			},
		},
		{
			"reasons in registration order",
			[]probe{{"z", fail("last letter, first probe")}, {"m", pass("")}, {"a", fail("first letter, last probe")}},
			http.StatusServiceUnavailable,
			Status{
				Status:  "degraded",
				Reasons: []string{"z: last letter, first probe", "a: first letter, last probe"},
				Detail:  map[string]string{"z": "last letter, first probe", "a": "first letter, last probe"},
			},
		},
		{
			"re-Add replaces the probe and keeps its place",
			[]probe{{"store", fail("fsync failing")}, {"replication", fail("link down")}, {"store", pass("")}},
			http.StatusServiceUnavailable,
			Status{
				Status:  "degraded",
				Reasons: []string{"replication: link down"},
				Detail:  map[string]string{"replication": "link down"},
			},
		},
		{
			"re-Add can clear the only failure",
			[]probe{{"store", fail("fsync failing")}, {"store", pass("")}},
			http.StatusOK,
			Status{Status: "ok"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Health
			for _, p := range tc.probes {
				h.Add(p.name, p.p)
			}
			var got Status
			code := get(t, NewServer("", &h, func() any { return nil }), "/healthz", &got)
			if code != tc.code {
				t.Errorf("HTTP %d, want %d", code, tc.code)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("body %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestHealthzFollowsProbe: probes run per request, so a node that degrades
// and recovers is reported as such without re-registering anything.
func TestHealthzFollowsProbe(t *testing.T) {
	var h Health
	up := true
	h.Add("link", func() (string, bool) { return "", up })
	srv := NewServer("", &h, func() any { return nil })
	for _, want := range []bool{true, false, true} {
		up = want
		var st Status
		code := get(t, srv, "/healthz", &st)
		if (code == http.StatusOK) != want || (st.Status == "ok") != want {
			t.Errorf("probe ok=%v: HTTP %d, status %q", want, code, st.Status)
		}
	}
}

func TestMetrics(t *testing.T) {
	type snapshot struct {
		Frames  int    `json:"frames"`
		Storage string `json:"storage"`
	}
	calls := 0
	srv := NewServer("", &Health{}, func() any {
		calls++
		return snapshot{Frames: calls, Storage: "dir frames"}
	})
	for want := 1; want <= 2; want++ {
		var got snapshot
		if code := get(t, srv, "/metrics", &got); code != http.StatusOK {
			t.Errorf("HTTP %d", code)
		}
		if got != (snapshot{Frames: want, Storage: "dir frames"}) {
			t.Errorf("request %d: snapshot %+v", want, got)
		}
	}
}
