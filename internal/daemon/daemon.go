// Package daemon is the HTTP and process scaffold shared by keybin2d,
// keybin2router and keybin2failover: the base mux every daemon serves
// (GET /healthz, /metrics, /trace), the opt-in pprof routes, the
// run_id-stamped logger and tracer built from the common flags, and the
// one listen → serve → signal → drain loop.
//
// Routes are registered as method patterns ("GET /stats",
// "POST /ingest"), so the mux itself answers a wrong method with 405 and
// an Allow header ("GET, HEAD" on reads) and an unknown path with 404;
// no handler checks r.Method.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"keybin2/internal/obs"
)

// NewMux returns a mux carrying the endpoints every daemon serves:
// GET /healthz (liveness, "ok"), GET /metrics (reg's Prometheus text)
// and GET /trace (tr's recent traces). Callers register their own
// routes on it.
func NewMux(reg *obs.Registry, tr *obs.Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /trace", tr.Handler())
	return mux
}

// Telemetry is one daemon incarnation's identity and instruments.
type Telemetry struct {
	RunID  string
	Logger *obs.Logger // writes to stderr; every line carries run_id
	Tracer *obs.Tracer
}

// NewTelemetry turns the -log-level and -slow-span flags into a fresh
// run_id, a logger at that level stamped with it, and a tracer of the
// given capacity that logs the trace IDs of spans slower than slowSpan
// (0 = off).
func NewTelemetry(level string, slowSpan time.Duration, capacity int) (Telemetry, error) {
	lvl, err := obs.ParseLevel(level)
	if err != nil {
		return Telemetry{}, fmt.Errorf("bad flags: %w", err)
	}
	t := Telemetry{RunID: obs.NewRunID(), Tracer: obs.NewTracer(capacity)}
	t.Logger = obs.NewLogger(os.Stderr, lvl, obs.KV("run_id", t.RunID))
	t.Tracer.SetRunID(t.RunID)
	if slowSpan > 0 {
		t.Tracer.SetSlowSpanLog(slowSpan, t.Logger)
	}
	return t, nil
}

// Service is what Serve runs.
type Service struct {
	Addr  string
	Mux   *http.ServeMux
	Pprof bool // mount net/http/pprof under GET /debug/pprof/ (the -pprof flag)
	// Logger receives the listening line and the shutdown line.
	Logger *obs.Logger
	// Attrs follow addr on the listening line.
	Attrs []obs.Attr
	// Stopping is the message logged when shutdown begins.
	Stopping string
	// Drain bounds http.Server.Shutdown and Stop together.
	Drain time.Duration
	// Start runs once the listener is bound, before serving.
	Start func()
	// Stop runs after the listener has shut down, or at once when
	// serving fails.
	Stop func(ctx context.Context) error
}

// Serve listens on svc.Addr, sends the bound address to ready (when
// non-nil), starts the service, logs msg=listening addr=… and serves
// until SIGINT/SIGTERM, a close of stop (which tests use), or a serve
// error. Signals are caught from the start, so one that lands during
// startup still drains. A requested shutdown stops the listener first, so
// no handler runs behind the drain, then calls svc.Stop, both within
// svc.Drain. The signal registration is released on return.
func Serve(svc Service, stop <-chan struct{}, ready chan<- net.Addr) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if svc.Pprof {
		svc.Mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		svc.Mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		svc.Mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		svc.Mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		svc.Mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", svc.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	hs := &http.Server{Handler: svc.Mux}
	svc.Start()
	attrs := append([]obs.Attr{obs.KV("addr", ln.Addr())}, svc.Attrs...)
	svc.Logger.Info("listening", append(attrs, obs.KV("pprof", svc.Pprof))...)

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		svc.Logger.Info(svc.Stopping, obs.KV("signal", s))
	case <-stop:
		svc.Logger.Info(svc.Stopping, obs.KV("signal", "stop requested"))
	case err := <-httpErr:
		return errors.Join(err, svc.Stop(context.Background()))
	}

	ctx, cancel := context.WithTimeout(context.Background(), svc.Drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return svc.Stop(ctx)
}

// ParseRange parses the -range flag's "lo,hi" into the same bounds for
// each of dims raw dimensions.
func ParseRange(s string, dims int) ([][2]float64, error) {
	lohi := strings.SplitN(s, ",", 2)
	if len(lohi) != 2 {
		return nil, fmt.Errorf("-range wants 'lo,hi', got %q", s)
	}
	lo, err1 := strconv.ParseFloat(strings.TrimSpace(lohi[0]), 64)
	hi, err2 := strconv.ParseFloat(strings.TrimSpace(lohi[1]), 64)
	if err1 != nil || err2 != nil || lo >= hi {
		return nil, fmt.Errorf("-range wants numeric lo < hi, got %q", s)
	}
	ranges := make([][2]float64, dims)
	for i := range ranges {
		ranges[i] = [2]float64{lo, hi}
	}
	return ranges, nil
}
