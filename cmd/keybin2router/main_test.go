package main

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func baseOpts() routerOpts {
	return routerOpts{
		addr: "127.0.0.1:0", shards: "http://127.0.0.1:1", // nothing listens on port 1
		dims: 4, trials: 2, seed: 9, rawRange: "-12,12", vnodes: 64,
		healthEvery: 50 * time.Millisecond, shardTimeout: time.Second,
		failAfter: 2, recoverAfter: 2, probeJitter: 0.2, logLevel: "info",
	}
}

// TestBuildConfigRejects pins the CLI-level rejections, which surface
// before any socket is opened.
func TestBuildConfigRejects(t *testing.T) {
	mut := func(f func(*routerOpts)) routerOpts {
		o := baseOpts()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    routerOpts
		want string // error substring ("" = valid)
	}{
		{"valid", baseOpts(), ""},
		{"missing shards", mut(func(o *routerOpts) { o.shards = "" }), "-shards"},
		{"missing dims", mut(func(o *routerOpts) { o.dims = 0 }), "-dims"},
		{"missing range", mut(func(o *routerOpts) { o.rawRange = "" }), "-range is required"},
		{"one-sided range", mut(func(o *routerOpts) { o.rawRange = "5" }), "-range wants 'lo,hi'"},
		{"bad range", mut(func(o *routerOpts) { o.rawRange = "low,high" }), "-range wants numeric"},
		{"reversed range", mut(func(o *routerOpts) { o.rawRange = "5,-5" }), "-range wants numeric"},
		{"fail-after 0", mut(func(o *routerOpts) { o.failAfter = 0 }), "-fail-after"},
		{"probe-jitter 1", mut(func(o *routerOpts) { o.probeJitter = 1 }), "-probe-jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := buildConfig(tc.o)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				if len(cfg.Shards) != 1 || len(cfg.Stream.RawRanges) != tc.o.dims {
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

// TestRouterLifecycle boots the router through run on an ephemeral port
// (its lone shard unreachable), checks liveness, and stops it.
func TestRouterLifecycle(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(baseOpts(), stop, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("router died on boot: %v", err)
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
