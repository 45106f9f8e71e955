package shardcluster_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"keybin2/internal/shardcluster"
)

// TestRouterMethodNotAllowed pins the router's 405 contract for every
// endpoint: reads refuse writes (Allow: GET, HEAD) and writes refuse reads
// (Allow: POST). No handler runs, so no shard needs to be up.
func TestRouterMethodNotAllowed(t *testing.T) {
	r, err := shardcluster.New(shardcluster.Config{
		Shards: []string{"http://127.0.0.1:1"}, // never contacted
		Stream: shardConfig(3),
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := httptest.NewServer(r.Handler())
	defer rt.Close()

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/ingest", "POST"},
		{http.MethodGet, "/label", "POST"},
		{http.MethodGet, "/merge", "POST"},
		{http.MethodHead, "/merge", "POST"},
		{http.MethodPost, "/stats", "GET, HEAD"},
		{http.MethodPost, "/ring", "GET, HEAD"},
		{http.MethodPost, "/readyz", "GET, HEAD"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
		{http.MethodPost, "/trace", "GET, HEAD"},
		{http.MethodDelete, "/ring", "GET, HEAD"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, _ := http.NewRequest(tc.method, rt.URL+tc.path, strings.NewReader(""))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
			}
		})
	}
}
