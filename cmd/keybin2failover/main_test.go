package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func baseOpts() supervisorOpts {
	return supervisorOpts{
		addr: "127.0.0.1:0", nodes: "http://127.0.0.1:1", // nothing listens on port 1
		probeEvery: 50 * time.Millisecond, probeTimeout: time.Second,
		failAfter: 3, recoverAfter: 2, jitter: 0.2, seed: 1, logLevel: "info",
	}
}

// TestBuildConfigRejects pins the CLI-level rejections, which surface
// before any socket is opened.
func TestBuildConfigRejects(t *testing.T) {
	mut := func(f func(*supervisorOpts)) supervisorOpts {
		o := baseOpts()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    supervisorOpts
		want string // error substring ("" = valid)
	}{
		{"valid", baseOpts(), ""},
		{"empty nodes", mut(func(o *supervisorOpts) { o.nodes = "" }), "-nodes"},
		{"blank nodes", mut(func(o *supervisorOpts) { o.nodes = " , " }), "-nodes"},
		{"negative jitter", mut(func(o *supervisorOpts) { o.jitter = -0.1 }), "-jitter"},
		{"recover-after 0", mut(func(o *supervisorOpts) { o.recoverAfter = 0 }), "-recover-after"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := buildConfig(tc.o)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				if len(cfg.Nodes) != 1 {
					t.Fatalf("config %+v", cfg)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}

// TestSupervisorLifecycle boots the supervisor through run on an
// ephemeral port (its lone node unreachable), checks liveness, and stops
// it.
func TestSupervisorLifecycle(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(baseOpts(), stop, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("supervisor died on boot: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}
