package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"keybin2/internal/obs"
)

// syncBuffer is a log sink the serve goroutine and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// testService is a Service over the base mux on an ephemeral port whose
// Start and Stop record that they ran.
func testService(log io.Writer) (*Service, *[]string) {
	var calls []string
	svc := &Service{
		Addr:     "127.0.0.1:0",
		Mux:      NewMux(obs.NewRegistry(), obs.NewTracer(4)),
		Logger:   obs.NewLogger(log, obs.LevelInfo),
		Stopping: "draining",
		Drain:    10 * time.Second,
		Start:    func() { calls = append(calls, "start") },
		Stop: func(ctx context.Context) error {
			if _, ok := ctx.Deadline(); !ok {
				calls = append(calls, "stop without drain bound")
			}
			calls = append(calls, "stop")
			return nil
		},
	}
	return svc, &calls
}

// serve runs Serve in the background and returns the base URL once it is
// listening, plus the stop channel and the channel Serve's result lands on.
func serve(t *testing.T, svc *Service) (string, chan struct{}, chan error) {
	t.Helper()
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- Serve(*svc, stop, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), stop, errc
	case err := <-errc:
		t.Fatalf("Serve failed on startup: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never became ready")
	}
	return "", nil, nil
}

func do(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(method, url, strings.NewReader(""))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestServeLifecycle: Serve starts the service, prints the structured
// listening line with the caller's attributes, and on a close of stop
// shuts the listener down before calling Stop under the drain bound.
func TestServeLifecycle(t *testing.T) {
	var log syncBuffer
	svc, calls := testService(&log)
	svc.Attrs = []obs.Attr{obs.KV("role", "test")}
	url, stop, errc := serve(t, svc)

	if resp := do(t, http.MethodGet, url+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("Serve after stop: %v", err)
	}
	if got := strings.Join(*calls, ","); got != "start,stop" {
		t.Fatalf("lifecycle calls = %q, want start,stop", got)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %q, want listening + draining", lines)
	}
	want := " msg=listening addr=" + strings.TrimPrefix(url, "http://") + " role=test pprof=false"
	if !strings.HasSuffix(lines[0], want) {
		t.Errorf("listening line %q, want suffix %q", lines[0], want)
	}
	if !strings.Contains(lines[1], `msg=draining signal="stop requested"`) {
		t.Errorf("shutdown line %q", lines[1])
	}
}

// TestServeSignal: SIGTERM drains exactly like a close of stop.
func TestServeSignal(t *testing.T) {
	var log syncBuffer
	svc, calls := testService(&log)
	_, _, errc := serve(t, svc)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not stop Serve")
	}
	if got := strings.Join(*calls, ","); got != "start,stop" {
		t.Fatalf("lifecycle calls = %q, want start,stop", got)
	}
	if !strings.Contains(log.String(), "msg=draining signal=terminated") {
		t.Errorf("no signal drain line in %q", log.String())
	}
}

// TestServeErrors: a listen failure returns before Start, and Stop's
// error is Serve's.
func TestServeErrors(t *testing.T) {
	svc, calls := testService(io.Discard)
	svc.Addr = "127.0.0.1:-1"
	if err := Serve(*svc, nil, nil); err == nil {
		t.Fatal("Serve on a bad address succeeded")
	}
	if len(*calls) != 0 {
		t.Fatalf("lifecycle calls after a listen failure: %q", *calls)
	}

	svc, _ = testService(io.Discard)
	boom := errors.New("final checkpoint failed")
	svc.Stop = func(context.Context) error { return boom }
	_, stop, errc := serve(t, svc)
	close(stop)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want Stop's error", err)
	}
}

// TestMethodPatterns pins the base mux's contract: reads answer GET and
// HEAD, any other method gets 405 with Allow: GET, HEAD, and an unknown
// path is 404.
func TestMethodPatterns(t *testing.T) {
	svc, _ := testService(io.Discard)
	url, stop, errc := serve(t, svc)
	defer func() { close(stop); <-errc }()

	for _, path := range []string{"/healthz", "/metrics", "/trace"} {
		for _, m := range []string{http.MethodGet, http.MethodHead} {
			if resp := do(t, m, url+path); resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s = %d, want 200", m, path, resp.StatusCode)
			}
		}
		for _, m := range []string{http.MethodPost, http.MethodDelete} {
			resp := do(t, m, url+path)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", m, path, resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want %q", m, path, got, "GET, HEAD")
			}
		}
	}
	if resp := do(t, http.MethodGet, url+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

// TestPprof: without the flag /debug/pprof/ is not mounted; with it every
// profile route serves GET and refuses other methods.
func TestPprof(t *testing.T) {
	svc, _ := testService(io.Discard)
	url, stop, errc := serve(t, svc)
	if resp := do(t, http.MethodGet, url+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without -pprof = %d, want 404", resp.StatusCode)
	}
	close(stop)
	<-errc

	svc, _ = testService(io.Discard)
	svc.Pprof = true
	url, stop, errc = serve(t, svc)
	defer func() { close(stop); <-errc }()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/debug/pprof/heap"} {
		if resp := do(t, http.MethodGet, url+path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile", "/debug/pprof/trace"} {
		resp := do(t, http.MethodPost, url+path)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != "GET, HEAD" {
			t.Errorf("POST %s: Allow %q, want %q", path, got, "GET, HEAD")
		}
	}
}

// TestNewTelemetry: the logger and tracer carry the minted run_id, and a
// bad level is a flag error.
func TestNewTelemetry(t *testing.T) {
	tel, err := NewTelemetry("warn", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tel.RunID == "" || tel.Logger.Enabled(obs.LevelInfo) || !tel.Logger.Enabled(obs.LevelWarn) {
		t.Fatalf("telemetry %+v: want a run_id and a warn-level logger", tel)
	}
	tel.Tracer.Start("x").Finish()
	if snap := tel.Tracer.Snapshot(); len(snap) != 1 || !strings.HasPrefix(snap[0].ID, tel.RunID) {
		t.Fatalf("trace not stamped with run_id %s: %+v", tel.RunID, snap)
	}
	if _, err := NewTelemetry("loud", 0, 8); err == nil || !strings.Contains(err.Error(), "bad flags") {
		t.Fatalf("bad level: %v", err)
	}
}

func TestParseRange(t *testing.T) {
	got, err := ParseRange(" -12, 12.5", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != [2]float64{-12, 12.5} || got[2] != got[0] {
		t.Fatalf("ParseRange = %v", got)
	}
	for _, bad := range []string{"", "5", "low,high", "5,-5", "1,1"} {
		if _, err := ParseRange(bad, 3); err == nil || !strings.HasPrefix(err.Error(), "-range wants") {
			t.Errorf("ParseRange(%q) = %v, want a -range error", bad, err)
		}
	}
}
