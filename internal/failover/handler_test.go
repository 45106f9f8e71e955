package failover

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSupervisorMethodNotAllowed pins the supervisor's 405 contract: every
// endpoint is a read and refuses writes with Allow: GET, HEAD.
func TestSupervisorMethodNotAllowed(t *testing.T) {
	sup, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}}) // never probed
	if err != nil {
		t.Fatal(err)
	}
	ctl := httptest.NewServer(sup.Handler())
	defer ctl.Close()

	for _, path := range []string{"/status", "/healthz", "/metrics", "/trace"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			t.Run(method+" "+path, func(t *testing.T) {
				req, _ := http.NewRequest(method, ctl.URL+path, strings.NewReader(""))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Fatalf("%s %s: status %d, want 405", method, path, resp.StatusCode)
				}
				if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
					t.Fatalf("%s %s: Allow %q, want %q", method, path, got, "GET, HEAD")
				}
			})
		}
	}
}
