// Command keybin2failover is the replica-set control plane: it supervises
// one keybin2d primary and its followers, detects primary failure with a
// consecutive-miss detector (flap hysteresis, jittered probes), elects
// the most-caught-up live follower, promotes it under a freshly minted
// fencing epoch, and converges stragglers — a revived ex-primary is
// fenced and demoted in place into a follower of the new primary.
//
// The supervisor holds no durable state. On start it re-learns the
// cluster epoch from the fleet's /stats and adopts the best live
// unfenced primary (minting epoch 1 over an unmanaged group), so it can
// itself be killed and restarted at any time without disturbing the
// replica set.
//
// Usage:
//
//	keybin2failover -nodes http://a:7420,http://b:7421,http://c:7422
//	                [-addr :7430] [-probe-every 500ms] [-probe-timeout 2s]
//	                [-fail-after 3] [-recover-after 2] [-jitter 0.2]
//	                [-seed 1] [-log-level info] [-pprof] [-slow-span 100ms]
//
// API:
//
//	GET /status  → cluster view: run_id, epoch, primary, per-node liveness
//	GET /metrics → Prometheus text exposition (keybin2failover_* series)
//	GET /trace   → recent probe-round traces (probe/converge spans)
//	GET /healthz → supervisor liveness
//	GET /debug/pprof/* → runtime profiles (only with -pprof)
//
// Election is deterministic: live followers ordered by highest replayed
// sequence, then lowest node id. A zombie whose applied horizon is AT OR
// BEHIND the elected primary's is demoted into its replica set; one that
// diverged past it is fenced off the write path and left for the
// operator — demoting it would discard acknowledged writes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"keybin2/internal/daemon"
	"keybin2/internal/failover"
	"keybin2/internal/obs"
)

type supervisorOpts struct {
	addr         string
	nodes        string
	probeEvery   time.Duration
	probeTimeout time.Duration
	failAfter    int
	recoverAfter int
	jitter       float64
	seed         int64
	logLevel     string
	pprof        bool
	slowSpan     time.Duration
}

func main() {
	var o supervisorOpts
	flag.StringVar(&o.addr, "addr", ":7430", "HTTP listen address for /status, /metrics, /healthz")
	flag.StringVar(&o.nodes, "nodes", "", "comma-separated keybin2d base URLs of the replica set (required, ≥ 1)")
	flag.DurationVar(&o.probeEvery, "probe-every", 500*time.Millisecond, "probe-round cadence")
	flag.DurationVar(&o.probeTimeout, "probe-timeout", 2*time.Second, "per-node probe deadline (control calls get 5x)")
	flag.IntVar(&o.failAfter, "fail-after", 3, "consecutive missed probes before a node is declared down")
	flag.IntVar(&o.recoverAfter, "recover-after", 2, "consecutive successful probes before a down node is readmitted")
	flag.Float64Var(&o.jitter, "jitter", 0.2, "per-node probe jitter as a fraction of -probe-every")
	flag.Int64Var(&o.seed, "seed", 1, "probe-jitter random seed")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug | info | warn | error")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.DurationVar(&o.slowSpan, "slow-span", 0, "log trace IDs of probe rounds slower than this (0 = off)")
	flag.Parse()

	if err := run(o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2failover:", err)
		os.Exit(1)
	}
}

func buildConfig(o supervisorOpts) (failover.Config, error) {
	var cfg failover.Config
	if o.nodes == "" {
		return cfg, fmt.Errorf("-nodes is required")
	}
	var nodes []string
	for _, n := range strings.Split(o.nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return cfg, fmt.Errorf("-nodes is required")
	}
	if o.failAfter < 1 || o.recoverAfter < 1 {
		return cfg, fmt.Errorf("-fail-after and -recover-after must be ≥ 1 (got %d/%d)", o.failAfter, o.recoverAfter)
	}
	if o.jitter < 0 || o.jitter >= 1 {
		return cfg, fmt.Errorf("-jitter wants a fraction in [0,1), got %g", o.jitter)
	}
	cfg = failover.Config{
		Nodes:        nodes,
		ProbeEvery:   o.probeEvery,
		ProbeTimeout: o.probeTimeout,
		FailAfter:    o.failAfter,
		RecoverAfter: o.recoverAfter,
		Jitter:       o.jitter,
		Seed:         o.seed,
		Registry:     obs.NewRegistry(),
	}
	return cfg, nil
}

// run starts the supervisor and blocks until a signal (or a close of
// stop, which tests use). When ready is non-nil it receives the bound
// listen address once serving.
func run(o supervisorOpts, stop <-chan struct{}, ready chan<- net.Addr) error {
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	t, err := daemon.NewTelemetry(o.logLevel, o.slowSpan, 128)
	if err != nil {
		return err
	}
	cfg.RunID, cfg.Logf, cfg.Tracer = t.RunID, t.Logger.Logf, t.Tracer

	sup, err := failover.New(cfg)
	if err != nil {
		return err
	}
	err = daemon.Serve(daemon.Service{
		Addr: o.addr, Mux: sup.Handler(), Pprof: o.pprof, Logger: t.Logger,
		Attrs: []obs.Attr{obs.KV("role", "failover-supervisor"),
			obs.KV("nodes", len(cfg.Nodes)), obs.KV("probe_every", o.probeEvery),
			obs.KV("fail_after", o.failAfter), obs.KV("recover_after", o.recoverAfter)},
		Stopping: "stopping", Drain: 10 * time.Second,
		Start: sup.Start, Stop: func(context.Context) error { sup.Stop(); return nil },
	}, stop, ready)
	if err != nil {
		return err
	}
	st := sup.Status()
	t.Logger.Info("stopped",
		obs.KV("cluster_epoch", st.ClusterEpoch), obs.KV("primary", st.Primary),
		obs.KV("elections", st.Elections), obs.KV("fences", st.Fences))
	return nil
}
