// Command keybin2d is the KeyBin2 in-situ clustering daemon: it owns a
// streaming clusterer, ingests batched point traffic over HTTP with
// backpressure, answers label/model/stats queries from an immutable model
// snapshot while refits run underneath, and checkpoints its state to disk
// so a restart resumes exactly where it stopped.
//
// Usage:
//
//	keybin2d -dims 16 [-addr :7420] [-trials 5] [-seed 1]
//	         [-warmup 500] [-period 1000] [-decay 0] [-depth 0]
//	         [-range lo,hi] [-queue-depth 64] [-max-batch 65536]
//	         [-retry-after 250ms] [-checkpoint state.kb2s]
//	         [-checkpoint-every 30s] [-drain-timeout 30s]
//	         [-wal-dir wal/] [-fsync always|interval|never]
//	         [-fsync-interval 100ms] [-wal-segment-bytes 4194304]
//	         [-log-level info] [-trace-log traces.jsonl] [-slow-span 50ms] [-pprof]
//	         [-follow http://primary:7420] [-follow-poll 2s]
//	         [-node-id id] [-shard name] [-epoch 0]
//
// API (binary batches are "KB2B" | dims u32 | count u32 | float64s, LE):
//
//	POST /ingest  → 202 accepted | 429 queue full (Retry-After)
//	POST /label   → {"labels":[...],"model_gen":g,"clusters":k}
//	GET  /model   → encoded model (keybin2.DecodeModel)
//	GET  /stats   → ingest/refit/queue counters (+ WAL lag, run_id)
//	GET  /metrics → Prometheus text exposition
//	GET  /trace   → recent pipeline traces as JSON
//	GET  /healthz → ok (liveness)
//	GET  /readyz  → 200 | 503 (draining or wedged WAL)
//	GET  /wal     → framed WAL tail from ?from=<seq> (replication;
//	               ?epoch=<e> is fenced like a write)
//	GET  /snapshot → newest checkpoint blob (follower bootstrap)
//	POST /promote → follower → primary promotion (?epoch=<e> mints or
//	               adopts a fencing epoch; see below)
//	POST /fence   → adopt a newer epoch: a follower re-points at
//	               ?primary=<url>, a primary is fenced off the write
//	               path (and demoted in place when ?primary is given)
//	POST /epoch   → primary-only epoch adoption (supervisor bootstrap)
//	GET  /debug/pprof/* → runtime profiles (only with -pprof)
//
// Logs are leveled key=value lines; every line carries a run_id unique to
// this daemon incarnation, which also appears in /stats and the
// keybin2d_build_info metric, so logs, scrapes, and crash-cycle restarts
// correlate. -trace-log additionally appends every finished pipeline
// trace as one JSON line to the named file.
//
// With -range the raw per-dimension bounds are predetermined (the paper's
// in-situ assumption) and the daemon serves labels from the first refit
// without a warmup buffer. SIGINT/SIGTERM drain gracefully: the listener
// stops, every accepted batch is applied, and a final checkpoint is
// written before exit.
//
// With -wal-dir every accepted batch is logged (and under -fsync always,
// fsynced) before the 202 ack, so even a kill -9 loses nothing that was
// acknowledged: on restart the daemon restores the newest checkpoint and
// replays the WAL tail past it.
//
// With -follow the daemon runs as a follower replica: it tails the
// primary's WAL, replays every acked batch into its own stream (stream
// flags must match the primary's), and serves reads while answering
// /ingest with 421 + the primary's URL. POST /promote turns it into a
// primary at its replayed horizon — with -wal-dir also set, the local WAL
// opens at that horizon and acks become durable again.
//
// Under a failover supervisor (cmd/keybin2failover) promotions carry
// monotone fencing epochs: a node at epoch E answers any request tokened
// with a NEWER epoch with 412 + {"error":"stale epoch",...} — the typed
// signal that it is a fenced zombie, not the primary. Epochs are
// deliberately not persisted; a restarted node rejoins at -epoch
// (default 0, unmanaged) and the supervisor re-fences it from the
// fleet's live epoch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

type daemonOpts struct {
	addr       string
	dims       int
	trials     int
	seed       int64
	warmup     int
	period     int
	decay      float64
	depth      int
	rawRange   string
	queueDepth int
	maxBatch   int
	retryAfter time.Duration
	ckptPath   string
	ckptEvery  time.Duration
	drainAfter time.Duration
	walDir     string
	fsync      string
	fsyncEvery time.Duration
	walSegment int64
	logLevel   string
	traceLog   string
	slowSpan   time.Duration
	pprof      bool
	follow     string
	followPoll time.Duration
	nodeID     string
	shard      string
	epoch      int64
}

func main() {
	var o daemonOpts
	flag.StringVar(&o.addr, "addr", ":7420", "HTTP listen address")
	flag.IntVar(&o.dims, "dims", 0, "raw input dimensionality (required)")
	flag.IntVar(&o.trials, "trials", 5, "bootstrap projection trials")
	flag.Int64Var(&o.seed, "seed", 1, "random seed (must match across restarts of the same checkpoint)")
	flag.IntVar(&o.warmup, "warmup", 0, "points buffered to establish ranges (0 = default 500; ignored with -range)")
	flag.IntVar(&o.period, "period", 0, "points between refits (0 = default 1000)")
	flag.Float64Var(&o.decay, "decay", 0, "exponential forgetting factor in (0,1); 0 disables")
	flag.IntVar(&o.depth, "depth", 0, "binning tree depth (0 = stream default)")
	flag.StringVar(&o.rawRange, "range", "", "predetermined per-dimension bounds 'lo,hi' applied to every raw dim (skips warmup)")
	flag.IntVar(&o.queueDepth, "queue-depth", 64, "pending ingest batches before backpressure")
	flag.IntVar(&o.maxBatch, "max-batch", 65536, "max points per batch")
	flag.DurationVar(&o.retryAfter, "retry-after", 250*time.Millisecond, "backoff hint on backpressure rejections")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "checkpoint file (enables periodic save + restore-on-start)")
	flag.DurationVar(&o.ckptEvery, "checkpoint-every", 30*time.Second, "checkpoint cadence")
	flag.DurationVar(&o.drainAfter, "drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	flag.StringVar(&o.walDir, "wal-dir", "", "write-ahead-log directory (enables crash-safe acks + replay-on-start)")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL flush policy: always | interval | never")
	flag.DurationVar(&o.fsyncEvery, "fsync-interval", 100*time.Millisecond, "flush cadence under -fsync interval")
	flag.Int64Var(&o.walSegment, "wal-segment-bytes", 4<<20, "WAL segment rotation threshold")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug | info | warn | error")
	flag.StringVar(&o.traceLog, "trace-log", "", "append finished pipeline traces as JSON lines to this file")
	flag.DurationVar(&o.slowSpan, "slow-span", 0, "log trace IDs of pipeline spans slower than this (0 = off)")
	flag.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.StringVar(&o.follow, "follow", "", "run as a follower replica of the primary at this base URL (e.g. http://127.0.0.1:7420)")
	flag.DurationVar(&o.followPoll, "follow-poll", 2*time.Second, "long-poll wait against the primary's WAL tail when caught up")
	flag.StringVar(&o.nodeID, "node-id", "", "stable node identity for logs and /stats (default: the run_id, fresh per start)")
	flag.StringVar(&o.shard, "shard", "", "shard label this node serves under a cluster router (informational)")
	flag.Int64Var(&o.epoch, "epoch", 0, "initial fencing epoch (0 = unmanaged; a failover supervisor raises it)")
	flag.Parse()

	if err := run(o, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2d:", err)
		os.Exit(1)
	}
}

// buildConfig validates the CLI knobs into a server.Config. Misconfigured
// flag pairs fail here, before any socket is opened: in particular a refit
// period shorter than the warmup (core's typed StreamConfigError) and a
// malformed -range.
func buildConfig(o daemonOpts) (server.Config, error) {
	var cfg server.Config
	if o.dims <= 0 {
		return cfg, fmt.Errorf("-dims is required (got %d)", o.dims)
	}
	sc := core.StreamConfig{
		Config:      core.Config{Trials: o.trials, Seed: o.seed, Depth: o.depth},
		Dims:        o.dims,
		Warmup:      o.warmup,
		Period:      o.period,
		DecayFactor: o.decay,
	}
	if o.rawRange != "" {
		ranges, err := daemon.ParseRange(o.rawRange, o.dims)
		if err != nil {
			return cfg, err
		}
		sc.RawRanges = ranges
	}
	if err := sc.Validate(); err != nil {
		var sce *core.StreamConfigError
		if errors.As(err, &sce) {
			return cfg, fmt.Errorf("bad flags: %w", err)
		}
		return cfg, err
	}
	if _, err := server.ParseFsyncPolicy(o.fsync); err != nil {
		return cfg, fmt.Errorf("bad flags: %w", err)
	}
	if o.epoch < 0 {
		return cfg, fmt.Errorf("-epoch must be ≥ 0 (got %d)", o.epoch)
	}
	cfg = server.Config{
		Stream:          sc,
		QueueDepth:      o.queueDepth,
		MaxBatchPoints:  o.maxBatch,
		RetryAfter:      o.retryAfter,
		CheckpointPath:  o.ckptPath,
		CheckpointEvery: o.ckptEvery,
		WALDir:          o.walDir,
		Fsync:           o.fsync,
		FsyncInterval:   o.fsyncEvery,
		WALSegmentBytes: o.walSegment,
		FollowURL:       o.follow,
		FollowPoll:      o.followPoll,
		NodeID:          o.nodeID,
		Shard:           o.shard,
		Epoch:           o.epoch,
	}
	return cfg, nil
}

// run starts the daemon and blocks until a signal (or a close of stop,
// which tests use) triggers the graceful drain. When ready is non-nil it
// receives the bound listen address once serving.
func run(o daemonOpts, stop <-chan struct{}, ready chan<- net.Addr) error {
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	t, err := daemon.NewTelemetry(o.logLevel, o.slowSpan, 256)
	if err != nil {
		return err
	}
	cfg.RunID, cfg.Logf, cfg.Tracer = t.RunID, t.Logger.Logf, t.Tracer
	if o.traceLog != "" {
		f, err := os.OpenFile(o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace log: %w", err)
		}
		defer f.Close()
		cfg.Tracer.SetLogSink(func(line []byte) { f.Write(line) })
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	nodeID := o.nodeID
	if nodeID == "" {
		nodeID = cfg.RunID // the server's own fallback
	}
	// Graceful order: the listener stops first so no handler can enqueue
	// behind the drain, then srv.Stop drains the queue and writes the
	// final checkpoint.
	err = daemon.Serve(daemon.Service{
		Addr: o.addr, Mux: srv.Handler(), Pprof: o.pprof, Logger: t.Logger,
		Attrs: []obs.Attr{obs.KV("node_id", nodeID), obs.KV("shard", o.shard),
			obs.KV("dims", o.dims), obs.KV("queue", o.queueDepth),
			obs.KV("checkpoint", o.ckptPath), obs.KV("wal_dir", o.walDir)},
		Stopping: "draining", Drain: o.drainAfter,
		Start: srv.Start, Stop: srv.Stop,
	}, stop, ready)
	if err != nil {
		return err
	}
	st := srv.Stats()
	t.Logger.Info("drained",
		obs.KV("seen", st.Seen), obs.KV("refits", st.Refits), obs.KV("checkpoints", st.Checkpoints))
	return nil
}
