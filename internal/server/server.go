package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/obs"
)

// Config tunes a keybin2d serving core.
type Config struct {
	// Stream configures the owned core.Stream. Stream.Dims is required.
	Stream core.StreamConfig
	// QueueDepth bounds the number of pending ingest batches (default 64).
	// A full queue rejects ingest with a retry-after hint instead of
	// blocking the producer — the in-situ contract is that a slow analysis
	// must never stall the simulation.
	QueueDepth int
	// MaxBatchPoints bounds the points accepted in one batch (default
	// 65536); larger batches are rejected before decoding their payload.
	MaxBatchPoints int
	// RetryAfter is the backoff hint returned with backpressure
	// rejections (default 250ms).
	RetryAfter time.Duration
	// CheckpointPath, when set, enables periodic stream checkpoints (and
	// restore-on-start when the file exists).
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence (default 30s; used only
	// when CheckpointPath is set). A final checkpoint is always written
	// during graceful shutdown.
	CheckpointEvery time.Duration
	// WALDir, when set, enables the write-ahead log: every accepted batch
	// is appended (and, per Fsync, flushed) before the 202 ack, and on
	// restart the tail past the newest checkpoint is replayed, so a
	// kill -9 loses nothing that was acknowledged.
	WALDir string
	// Fsync is the WAL flush policy: "always" (default — ack implies
	// stable storage), "interval" (flush every FsyncInterval), or
	// "never" (leave flushing to the OS).
	Fsync string
	// FsyncInterval is the flush cadence under Fsync="interval"
	// (default 100ms).
	FsyncInterval time.Duration
	// WALSegmentBytes triggers WAL segment rotation (default 4 MiB).
	WALSegmentBytes int64
	// FS is the filesystem the WAL and checkpoints write through
	// (default OSFS; tests inject faults).
	FS FS
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// Registry receives the serving core's metrics and backs GET /metrics
	// (default: a fresh private registry, so /metrics always answers).
	Registry *obs.Registry
	// Tracer stamps each accepted ingest batch with a trace recording the
	// ingest→WAL-append→fsync→enqueue→apply→refit chain, served at
	// GET /trace (default: a fresh 256-trace ring).
	Tracer *obs.Tracer
	// RunID identifies this daemon incarnation in /stats and the
	// build-info metric (default: a fresh obs.NewRunID()).
	RunID string
	// NodeID is this node's stable identity across restarts — what a shard
	// router or chaos harness addresses instead of inferring identity from
	// listen addresses. Unlike RunID it survives a restart. Defaults to
	// RunID (so a standalone daemon needs no flag).
	NodeID string
	// Shard names this node's shard assignment in a sharded cluster
	// (reported in /stats and the startup identity; empty standalone).
	Shard string

	// FollowURL, when set, runs this daemon as a follower replica: it
	// tails the primary's WAL at the given base URL (GET /wal), replays
	// every record into its own stream, and serves /label /model /stats
	// /readyz from the replayed state while refusing /ingest with a typed
	// 421 redirect to the primary. The stream flags must match the
	// primary's exactly — replay is deterministic only under an identical
	// configuration. WALDir, when also set, stays closed until the
	// follower is promoted (POST /promote), at which point it opens at the
	// replayed horizon and the node starts accepting writes.
	FollowURL string
	// FollowPoll is the long-poll wait the follower requests from the
	// primary's tail endpoint when caught up (default 2s).
	FollowPoll time.Duration
	// FollowMaxBackoff caps the follower's reconnect backoff after a
	// failed or dropped tail connection (default 5s).
	FollowMaxBackoff time.Duration
	// FollowHTTP is the HTTP client the follower tails with (default: a
	// dedicated client with bounded dial/TLS/first-byte timeouts; tests
	// inject one bound to an httptest server).
	FollowHTTP *http.Client
	// Epoch is the node's initial fencing epoch (default 0 = unmanaged).
	// A failover supervisor raises it via /promote, /fence, or /epoch;
	// see failover.go for the fencing invariants.
	Epoch int64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 65536
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.FS == nil {
		c.FS = OSFS
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.RunID == "" {
		c.RunID = obs.NewRunID()
	}
	if c.NodeID == "" {
		c.NodeID = c.RunID
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(256)
		c.Tracer.SetRunID(c.RunID)
	}
	if c.FollowPoll <= 0 {
		c.FollowPoll = 2 * time.Second
	}
	if c.FollowMaxBackoff <= 0 {
		c.FollowMaxBackoff = 5 * time.Second
	}
	return c
}

// WALInfo is the durability block served inside Stats.
type WALInfo struct {
	WALStats
	// CoveredSeq is the newest WAL sequence a durable checkpoint covers;
	// LagRecords is how many acknowledged batches a crash right now would
	// have to replay (LastSeq - CoveredSeq).
	CoveredSeq uint64 `json:"covered_seq"`
	LagRecords uint64 `json:"lag_records"`
	Policy     string `json:"policy"`
	// ReplayedBatches/Points count what recovery replayed at startup.
	ReplayedBatches int64 `json:"replayed_batches"`
	ReplayedPoints  int64 `json:"replayed_points"`
}

// Stats is the counter snapshot served at /stats.
type Stats struct {
	// RunID identifies this daemon incarnation; it changes on every
	// restart, which is how clients and the chaos harness correlate
	// /stats snapshots, log lines, and metrics across a crash cycle.
	RunID string `json:"run_id,omitempty"`
	// NodeID is the stable node identity (Config.NodeID; survives
	// restarts, unlike RunID). Shard is the node's shard assignment when
	// part of a sharded cluster.
	NodeID string `json:"node_id,omitempty"`
	Shard  string `json:"shard,omitempty"`
	// MergeEpoch is the newest cluster merge epoch whose global model this
	// node has installed (0 = serving its local model). GlobalSeen is the
	// merged point count behind that model — cluster-wide, not this
	// shard's.
	MergeEpoch int64 `json:"merge_epoch,omitempty"`
	GlobalSeen int64 `json:"global_seen,omitempty"`
	// Seen is the number of points applied to the stream (including any
	// restored from a checkpoint or replayed from the WAL).
	Seen int64 `json:"seen"`
	// Accepted / Rejected count ingest points admitted to the queue and
	// batches refused for backpressure.
	Accepted        int64 `json:"accepted"`
	RejectedBatches int64 `json:"rejected_batches"`
	Batches         int64 `json:"batches"`
	// DuplicateBatches counts ingests acknowledged without re-applying
	// because their producer sequence was already accepted (client
	// retries after a lost ack).
	DuplicateBatches int64 `json:"duplicate_batches"`
	// Labeled counts points answered by /label.
	Labeled int64 `json:"labeled"`
	// Refits is the model generation: how many models this process has
	// published. 0 means /label still answers all-noise (warmup).
	Refits   int64 `json:"refits"`
	Clusters int   `json:"clusters"`
	QueueLen int   `json:"queue_len"`
	QueueCap int   `json:"queue_cap"`
	// Checkpoints counts completed checkpoint writes; LastCheckpointUnix
	// is the wall-clock second of the latest one (0 = never).
	Checkpoints        int64   `json:"checkpoints"`
	LastCheckpointUnix int64   `json:"last_checkpoint_unix"`
	Draining           bool    `json:"draining"`
	UptimeSec          float64 `json:"uptime_sec"`
	// Producers maps each producer id to its highest acknowledged batch
	// sequence — the client-visible half of the idempotency contract,
	// and what the chaos harness audits after a kill -9.
	Producers map[string]uint64 `json:"producers,omitempty"`
	// WAL is nil when the write-ahead log is disabled.
	WAL *WALInfo `json:"wal,omitempty"`
	// Role is "primary" or "follower". A promoted node reports "primary"
	// with Promoted set.
	Role     string `json:"role"`
	Promoted bool   `json:"promoted,omitempty"`
	// Epoch is the node's fencing epoch (0 = unmanaged); Fenced reports a
	// primary that has been fenced off the write path by a newer epoch.
	Epoch  int64 `json:"epoch,omitempty"`
	Fenced bool  `json:"fenced,omitempty"`
	// Primary is the upstream base URL while following.
	Primary string `json:"primary,omitempty"`
	// AppliedSeq is the newest WAL sequence applied to the stream — on a
	// primary that trails LastSeq by the queue depth, on a follower it is
	// the replication horizon.
	AppliedSeq uint64 `json:"applied_seq"`
	// PrimaryLastSeq (follower only) is the primary's newest WAL sequence
	// as of the last completed tail round; AppliedSeq catching up to it
	// means the replica is current.
	PrimaryLastSeq uint64 `json:"primary_last_seq,omitempty"`
	// TailReconnects (follower only) counts tail connection attempts that
	// followed a failure.
	TailReconnects int64 `json:"tail_reconnects,omitempty"`
	// ReplicaLagSeconds (follower only) is how long the replica has been
	// behind the primary's reported horizon (0 = caught up).
	ReplicaLagSeconds float64 `json:"replica_lag_seconds,omitempty"`
}

// ingestItem is one accepted batch in flight between the HTTP edge and
// the writer goroutine, tagged with its WAL sequence and the producer's
// idempotency key so apply() can track both. The batch owns its pooled
// wire buffer; apply() releases it after the stream has consumed it.
type ingestItem struct {
	batch    *Batch
	seq      uint64
	producer string
	pseq     uint64
	trace    *obs.Trace // in-flight batch trace; apply() finishes it
}

// Server is the serving core: one writer goroutine owning a core.Stream,
// a bounded ingest queue, and HTTP handlers that read only the stream's
// atomically-published model snapshot plus the server's atomic counters.
// Wire Handler() into an http.Server (or httptest) and call Start/Stop
// around it.
//
// Durability: with WALDir set, the accept path is WAL-append → enqueue
// inside one critical section (so WAL order equals apply order and
// nothing is acknowledged before it is logged), and then — under
// Fsync="always" — the 202 waits for WAL.WaitDurable outside the locks:
// concurrent producers coalesce onto one group-commit fsync, and the
// writer may already be applying the batch while its fsync is in flight.
// Checkpoints record the WAL position they cover (via the v2
// stream-checkpoint metadata) and sync the WAL first so coverage never
// outruns the disk; restart restores the checkpoint and replays only the
// uncovered tail.
type Server struct {
	cfg    Config
	fs     FS
	fsync  FsyncPolicy
	tel    *telemetry
	tracer *obs.Tracer

	// wal and stream are atomic pointers because follower promotion
	// installs a WAL (and a snapshot bootstrap replaces the stream) while
	// read handlers are live; on a plain primary both are stored once in
	// New and never change.
	wal    atomic.Pointer[WAL]
	stream atomic.Pointer[core.Stream]

	// curTrace is the batch trace the writer goroutine is currently
	// applying; RecordStage attaches stream-reported stage spans (refit)
	// to it. Owned by the goroutine driving the stream — never read
	// elsewhere.
	curTrace *obs.Trace

	queue chan ingestItem
	done  chan struct{}
	wg    sync.WaitGroup
	start time.Time

	// Shard-cluster state (see shard.go). histC round-trips /hist requests
	// through the writer goroutine; globalModel is the merged cluster
	// model the read path prefers once a coordinator installs one.
	// mergeMu orders installs so epochs only move forward.
	histC       chan chan histResult
	globalModel atomic.Pointer[core.Model]
	globalSeen  atomic.Int64
	mergeEpoch  atomic.Int64
	mergeMu     sync.Mutex

	// Replica-set state (see replica.go and failover.go). follower flips
	// at promotion (after the WAL pointer is installed) and back at
	// demotion (after the WAL is closed); the serving loop alternates
	// between runLoop and followLoop on it. promoteCh/demoteCh carry role
	// changes onto that loop; nudge breaks a parked tail long poll so a
	// pending role change is observed immediately.
	follower       atomic.Bool
	promoteCh      chan *roleReq
	demoteCh       chan *roleReq
	nudge          chan struct{}
	clusterEpoch   atomic.Int64 // fencing epoch; only moves forward
	fenced         atomic.Bool  // primary fenced off the write path
	primaryURL     atomic.Pointer[string]
	appliedSeqA    atomic.Uint64 // mirrors appliedSeq for readers
	primaryLastSeq atomic.Uint64 // primary's lastSeq per the latest tail round
	behindSince    atomic.Int64  // unix nanos the replica fell behind (0 = caught up)
	tailReconnects atomic.Int64

	// drainMu gates enqueues against shutdown: Stop takes the write lock
	// to flip draining, after which no handler can be inside the enqueue
	// critical section, so the writer's final drain sees every accepted
	// batch.
	drainMu  sync.RWMutex
	draining bool

	// ingestMu serializes the accept path: duplicate check, WAL append,
	// and queue insert happen atomically, which (a) makes WAL order the
	// apply order and (b) lets the queue-full check be exact — enqueuers
	// all hold this lock, so a passed check cannot be invalidated before
	// the insert.
	ingestMu  sync.Mutex
	lastSeen  map[string]uint64 // producer → highest acked sequence
	nextSeq   uint64            // last issued batch sequence (mirrors WAL)
	walHdrBuf []byte            // reusable WAL entry header (guarded by ingestMu)

	// Writer-goroutine state (touched only by run()/apply()/checkpoint()
	// and by New before Start): the WAL position applied to the stream
	// and the per-producer sequences those applies carried. Checkpoint
	// metadata snapshots both.
	appliedSeq       uint64
	appliedProducers map[string]uint64

	seen        atomic.Int64 // mirrors stream.Seen() after each batch
	accepted    atomic.Int64
	rejected    atomic.Int64
	batches     atomic.Int64
	duplicates  atomic.Int64
	labeled     atomic.Int64
	refits      atomic.Int64 // model generation: refitBase + stream.Refits()
	refitBase   int64        // 1 when a restored checkpoint carried a model
	checkpoints atomic.Int64
	lastCkpt    atomic.Int64
	coveredSeq  atomic.Uint64 // newest WAL seq covered by a durable checkpoint
	replayedB   int64         // batches replayed from the WAL at startup
	replayedP   int64         // points replayed
	writerErr   atomic.Pointer[error]
}

// New builds a server around a fresh stream, or — when cfg.CheckpointPath
// names an existing file — around the stream restored from it, replaying
// the WAL tail past the checkpoint when cfg.WALDir is set. A corrupt or
// config-mismatched checkpoint, a corrupt WAL body, or a WAL that lost
// acknowledged history (WALStaleError) is an error rather than a silent
// fresh start: the operator must decide whether to delete state.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Stream.Validate(); err != nil {
		return nil, err
	}
	fsyncPolicy, err := ParseFsyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}

	var st *core.Stream
	var ckptMeta walCkptMeta
	restored := false
	if cfg.CheckpointPath != "" {
		if blob, rerr := cfg.FS.ReadFile(cfg.CheckpointPath); rerr == nil {
			var metaBytes []byte
			st, metaBytes, err = core.DecodeStreamMeta(cfg.Stream, blob)
			if err != nil {
				return nil, fmt.Errorf("server: restore %s: %w", cfg.CheckpointPath, err)
			}
			ckptMeta, err = decodeWALCkptMeta(metaBytes)
			if err != nil {
				return nil, fmt.Errorf("server: restore %s: %w", cfg.CheckpointPath, err)
			}
			restored = true
		} else if !errors.Is(rerr, os.ErrNotExist) {
			return nil, fmt.Errorf("server: restore %s: %w", cfg.CheckpointPath, rerr)
		}
	}
	if st == nil {
		st, err = core.NewStream(cfg.Stream)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:              cfg,
		fs:               cfg.FS,
		fsync:            fsyncPolicy,
		tel:              newTelemetry(cfg.Registry, cfg.RunID, fsyncPolicy, cfg.FollowURL != ""),
		tracer:           cfg.Tracer,
		queue:            make(chan ingestItem, cfg.QueueDepth),
		histC:            make(chan chan histResult),
		done:             make(chan struct{}),
		promoteCh:        make(chan *roleReq),
		demoteCh:         make(chan *roleReq),
		nudge:            make(chan struct{}, 1),
		start:            time.Now(),
		lastSeen:         make(map[string]uint64),
		appliedProducers: make(map[string]uint64),
	}
	s.stream.Store(st)
	s.clusterEpoch.Store(cfg.Epoch)
	s.setPrimaryURL(cfg.FollowURL)
	// The stream reports refit/warmup timings into the stage histogram
	// (and, during apply, onto the active batch trace) from here on —
	// including the refits WAL replay triggers below.
	st.SetRecorder(s)
	s.appliedSeq = ckptMeta.coveredSeq
	s.appliedSeqA.Store(ckptMeta.coveredSeq)
	s.nextSeq = ckptMeta.coveredSeq
	s.coveredSeq.Store(ckptMeta.coveredSeq)
	for p, q := range ckptMeta.producers {
		s.appliedProducers[p] = q
		s.lastSeen[p] = q
	}

	if cfg.FollowURL != "" {
		// Follower: no WAL of its own until promotion (cfg.WALDir is held
		// back for that moment); the local checkpoint restored above is
		// the resume point — the tail restarts at its covered sequence.
		s.follower.Store(true)
		s.behindSince.Store(time.Now().UnixNano())
	} else if cfg.WALDir != "" {
		wcfg := WALConfig{
			Dir:          cfg.WALDir,
			FS:           cfg.FS,
			Fsync:        fsyncPolicy,
			FsyncEvery:   cfg.FsyncInterval,
			SegmentBytes: cfg.WALSegmentBytes,
			Logf:         cfg.Logf,
			OnFsync: func(d time.Duration) {
				s.tel.walFsyncs.Inc()
				s.tel.walFsyncSec.Observe(d.Seconds())
			},
			OnRotate: func() { s.tel.walRotations.Inc() },
		}
		wal, werr := OpenWAL(wcfg)
		if werr != nil {
			return nil, werr
		}
		if !wal.WasEmpty() && wal.LastSeq() < s.appliedSeq {
			// The checkpoint is newer than the log: the WAL lost
			// acknowledged history. Refuse — replaying a hole is silent
			// data loss.
			wal.Close()
			return nil, &WALStaleError{LastSeq: wal.LastSeq(), CoveredSeq: s.appliedSeq}
		}
		if wal.WasEmpty() && s.appliedSeq > 0 {
			// Fresh log attached to an existing checkpoint (WAL enabled
			// after the fact, or truncation removed everything): continue
			// the checkpoint's numbering.
			wal.ForwardTo(s.appliedSeq)
		}
		if err := s.replayWAL(wal); err != nil {
			wal.Close()
			return nil, err
		}
		s.wal.Store(wal)
		s.nextSeq = wal.LastSeq()
		s.tel.walReplayedB.Add(s.replayedB)
		s.tel.walReplayedP.Add(s.replayedP)
	}

	s.seen.Store(int64(st.Seen()))
	if restored && st.Snapshot() != nil {
		// A restored model counts as generation 1: /label answers from it
		// immediately, and clients comparing generations across a restart
		// see a live model, not warmup.
		s.refitBase = 1
		s.logf("restored %d points from %s", st.Seen(), cfg.CheckpointPath)
	}
	s.refits.Store(s.refitBase + int64(st.Refits()))
	s.tel.installCollect(s)
	return s, nil
}

// replayWAL applies every WAL record past the checkpoint's covered
// sequence to the freshly-restored stream, skipping producer-sequence
// duplicates (a batch can appear twice when a client retried after a
// lost ack). Runs before Start, so the stream is still single-owner.
func (s *Server) replayWAL(wal *WAL) error {
	from := s.appliedSeq
	err := wal.Replay(from, func(seq uint64, entry []byte) error {
		rows, applied, aerr := s.applyWALEntry(seq, entry)
		if aerr != nil {
			return fmt.Errorf("server: wal replay seq %d: %w", seq, aerr)
		}
		if applied {
			s.replayedB++
			s.replayedP += int64(rows)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.replayedB > 0 {
		s.logf("wal: replayed %d batches (%d points) past checkpoint seq %d",
			s.replayedB, s.replayedP, from)
	}
	return nil
}

// applyWALEntry decodes one WAL entry and feeds its batch into the
// stream, advancing the applied horizon and the producer idempotency
// maps. It is the single replay path shared by startup recovery and the
// follower tail loop — one code path is what makes a replica
// byte-identical to a primary that replayed the same log. The caller
// must be the goroutine owning the stream. Returns the batch's row count
// and whether it was applied (false = producer-sequence duplicate).
func (s *Server) applyWALEntry(seq uint64, entry []byte) (rows int, applied bool, err error) {
	producer, pseq, raw, err := decodeWALEntry(entry)
	if err != nil {
		return 0, false, err
	}
	s.appliedSeq = seq
	s.appliedSeqA.Store(seq)
	if producer != "" && pseq > 0 {
		if last, ok := s.appliedProducers[producer]; ok && pseq <= last {
			return 0, false, nil // duplicate append; first copy already applied
		}
	}
	b, err := DecodeBatchAlias(raw, 0)
	if err != nil {
		return 0, false, err
	}
	rows = b.M.Rows
	if b.M.Cols != s.cfg.Stream.Dims {
		cols := b.M.Cols
		b.Release()
		return 0, false, fmt.Errorf("batch has %d dims, stream expects %d", cols, s.cfg.Stream.Dims)
	}
	if _, err := s.stream.Load().IngestBatch(&b.M); err != nil {
		b.Release()
		return 0, false, err
	}
	b.Release()
	if producer != "" && pseq > 0 {
		s.appliedProducers[producer] = pseq
		s.ingestMu.Lock()
		if s.lastSeen[producer] < pseq {
			s.lastSeen[producer] = pseq
		}
		s.ingestMu.Unlock()
	}
	return rows, true, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Start launches the serving-loop goroutine. Call exactly once.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.serve()
}

// serve is the node's role loop: the single goroutine that owns the
// stream runs the writer loop while primary and the tail loop while
// following, switching in place on promote/demote — ownership of the
// stream never has a gap or a second owner.
func (s *Server) serve() {
	defer s.wg.Done()
	for {
		var again bool
		if s.follower.Load() {
			again = s.followLoop()
		} else {
			again = s.runLoop()
		}
		if !again {
			return
		}
	}
}

// Stop drains and shuts the serving core down: new ingests are refused,
// every batch already accepted is applied, a final checkpoint is written,
// the WAL is closed, and the writer exits. Callers must stop the HTTP
// listener first (so no handler is blocked mid-request) —
// http.Server.Shutdown, then Stop. The context bounds the drain; on
// expiry the writer is abandoned mid-queue and its remaining batches are
// lost from the live stream (they were acknowledged as queued — with a
// WAL they are still durable and will be replayed on the next start, so
// the timeout is reported as an error but not as data loss).
func (s *Server) Stop(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		close(s.done)
	}
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out with %d batches undrained: %w", len(s.queue), ctx.Err())
	}
	var walErr error
	if wal := s.wal.Load(); wal != nil {
		walErr = wal.Close()
	}
	if p := s.writerErr.Load(); p != nil {
		return *p
	}
	return walErr
}

// runLoop is the writer loop body: serve() runs it while the node is a
// primary. Returns false on shutdown, true after a demotion switched the
// node's role (serve() re-enters as followLoop on this same goroutine).
func (s *Server) runLoop() bool {
	var ckptC <-chan time.Time
	if s.cfg.CheckpointPath != "" {
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		ckptC = t.C
	}
	for {
		select {
		case it := <-s.queue:
			s.apply(it)
		case resp := <-s.histC:
			s.exportHist(resp)
		case req := <-s.promoteCh:
			req.done <- roleResult{err: errAlreadyPrimary, epoch: s.clusterEpoch.Load(), appliedSeq: s.appliedSeqA.Load()}
		case req := <-s.demoteCh:
			err := s.demote(req.primary, req.epoch)
			req.done <- roleResult{err: err, epoch: s.clusterEpoch.Load(), appliedSeq: s.appliedSeqA.Load()}
			if err == nil {
				return true // now a follower; serve() switches loops
			}
		case <-ckptC:
			s.checkpoint()
		case <-s.done:
			// Drain: Stop flipped draining under the write lock first, so
			// nothing is added behind this loop.
			for {
				select {
				case it := <-s.queue:
					s.apply(it)
				default:
					s.checkpoint()
					return false
				}
			}
		}
	}
}

// apply feeds one batch into the stream and refreshes the mirrored
// counters the read path serves. It closes out the writer's share of the
// batch's trace: an "apply" span around the batch ingest, plus whatever
// stage spans the stream reported through RecordStage (a periodic refit
// lands here). The pooled batch is released once the stream has consumed
// it — the stream bins out of the aliased wire buffer and retains
// nothing from it.
func (s *Server) apply(it ingestItem) {
	b := it.batch
	var applySpan *obs.Span
	if it.trace != nil {
		s.curTrace = it.trace
		applySpan = it.trace.Span("apply", obs.KV("points", b.M.Rows))
	}
	st := s.stream.Load()
	if _, err := st.IngestBatch(&b.M); err != nil {
		// Dimensionality was validated at the HTTP edge, so an error
		// here is a refit failure — record it; the daemon keeps
		// serving the previous model.
		e := fmt.Errorf("server: ingest: %w", err)
		s.writerErr.Store(&e)
		s.logf("ingest error: %v", err)
	}
	s.appliedSeq = it.seq
	s.appliedSeqA.Store(it.seq)
	if it.producer != "" && it.pseq > 0 {
		s.appliedProducers[it.producer] = it.pseq
	}
	s.batches.Add(1)
	s.seen.Store(int64(st.Seen()))
	s.refits.Store(s.refitBase + int64(st.Refits()))
	if it.trace != nil {
		applySpan.End()
		s.curTrace = nil
		it.trace.Finish()
	}
	b.Release()
}

// checkpoint writes the stream state durably (tmp + fsync + rename +
// parent-dir fsync) with the covered WAL position in its metadata, then
// truncates WAL segments the checkpoint covers. Before warmup there is
// no state worth saving; that case is skipped silently.
func (s *Server) checkpoint() {
	if s.cfg.CheckpointPath == "" {
		return
	}
	ckptStart := time.Now()
	wal := s.wal.Load()
	if wal != nil {
		// The checkpoint claims coverage through appliedSeq, and with the
		// pipelined writer apply can outrun the group-commit fsync. Sync
		// first, or a crash could leave a durable checkpoint covering WAL
		// records that never reached the disk — a false WALStaleError on
		// the next start.
		if err := wal.Sync(); err != nil {
			s.logf("checkpoint: wal sync: %v", err)
			return
		}
	}
	var meta []byte
	if wal != nil || len(s.appliedProducers) > 0 || s.follower.Load() {
		meta = encodeWALCkptMeta(s.appliedSeq, s.appliedProducers)
	}
	blob, err := s.stream.Load().EncodeWithMeta(meta)
	if err != nil {
		return // pre-warmup: nothing to save yet
	}
	if err := writeFileDurable(s.fs, s.cfg.CheckpointPath, blob, 0o644); err != nil {
		s.logf("checkpoint: %v", err)
		return
	}
	s.coveredSeq.Store(s.appliedSeq)
	if wal != nil {
		if err := wal.TruncateThrough(s.appliedSeq); err != nil {
			s.logf("checkpoint: wal truncation: %v", err)
		}
	}
	s.checkpoints.Add(1)
	s.lastCkpt.Store(time.Now().Unix())
	s.tel.ckpts.Inc()
	s.tel.ckptSec.Observe(time.Since(ckptStart).Seconds())
	s.logf("checkpoint: %d points, %d bytes, covers wal seq %d", s.stream.Load().Seen(), len(blob), s.appliedSeq)
}

// Stats returns the current counter snapshot. Safe from any goroutine.
func (s *Server) Stats() Stats {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	st := Stats{
		RunID:              s.cfg.RunID,
		NodeID:             s.cfg.NodeID,
		Shard:              s.cfg.Shard,
		MergeEpoch:         s.mergeEpoch.Load(),
		GlobalSeen:         s.globalSeen.Load(),
		Seen:               s.seen.Load(),
		Accepted:           s.accepted.Load(),
		RejectedBatches:    s.rejected.Load(),
		Batches:            s.batches.Load(),
		DuplicateBatches:   s.duplicates.Load(),
		Labeled:            s.labeled.Load(),
		Refits:             s.refits.Load(),
		QueueLen:           len(s.queue),
		QueueCap:           cap(s.queue),
		Checkpoints:        s.checkpoints.Load(),
		LastCheckpointUnix: s.lastCkpt.Load(),
		Draining:           draining,
		UptimeSec:          time.Since(s.start).Seconds(),
	}
	s.ingestMu.Lock()
	if len(s.lastSeen) > 0 {
		st.Producers = make(map[string]uint64, len(s.lastSeen))
		for p, q := range s.lastSeen {
			st.Producers[p] = q
		}
	}
	s.ingestMu.Unlock()
	if wal := s.wal.Load(); wal != nil {
		info := &WALInfo{
			WALStats:        wal.Stats(),
			CoveredSeq:      s.coveredSeq.Load(),
			Policy:          string(s.fsync),
			ReplayedBatches: s.replayedB,
			ReplayedPoints:  s.replayedP,
		}
		if info.LastSeq > info.CoveredSeq {
			info.LagRecords = info.LastSeq - info.CoveredSeq
		}
		st.WAL = info
	}
	st.AppliedSeq = s.appliedSeqA.Load()
	st.Epoch = s.clusterEpoch.Load()
	st.Fenced = s.fenced.Load()
	if s.follower.Load() {
		st.Role = "follower"
		st.Primary = s.primaryHint()
		st.PrimaryLastSeq = s.primaryLastSeq.Load()
		st.TailReconnects = s.tailReconnects.Load()
		st.ReplicaLagSeconds = s.replicaLagSeconds()
	} else {
		st.Role = "primary"
		st.Promoted = s.cfg.FollowURL != ""
	}
	if m, _ := s.servingModel(); m != nil {
		st.Clusters = m.K()
	}
	return st
}

// replicaLagSeconds reports how long the replica has been behind the
// primary's last reported horizon; 0 means caught up.
func (s *Server) replicaLagSeconds() float64 {
	since := s.behindSince.Load()
	if since == 0 {
		return 0
	}
	return time.Since(time.Unix(0, since)).Seconds()
}

// Handler returns the HTTP API:
//
//	POST /ingest  binary batch → 202 {"queued":n,"seq":s} | 429 backpressure
//	POST /label   binary batch → 200 {"labels":[...],"model_gen":g}
//	GET  /model   → encoded model (Model.Encode) | 404 before first refit
//	GET  /stats   → Stats JSON
//	GET  /metrics → Prometheus text exposition
//	GET  /trace   → recent batch traces, JSON, newest first
//	GET  /healthz → 200 "ok" (liveness)
//	GET  /readyz  → 200 | 503 readiness: draining or a wedged WAL → 503
//	GET  /wal     → framed WAL tail stream from ?from=<seq> (replication)
//	GET  /snapshot → newest durable checkpoint blob (follower bootstrap)
//	POST /promote → follower → primary promotion (?epoch=N mints/adopts a
//	               fencing epoch); 409 on a primary or a stale epoch
//	POST /fence   → ?epoch=N[&primary=URL]: fence this node at epoch N;
//	               a primary with a primary= target demotes in place
//	POST /epoch   → ?epoch=N: raise the current primary's epoch
//	               (supervisor adoption); 409 on a follower
//	GET  /hist    → cumulative shard histogram state (merge collective)
//	POST /hist/install?epoch=N → install the merged global model
//
// GET /healthz, /metrics and /trace come from daemon.NewMux. Every route
// is a method pattern: reads answer GET and HEAD, writes answer POST, and
// the mux refuses anything else with 405 and an Allow header. Callers may
// register more routes on the returned mux (keybin2d mounts pprof there).
//
// Ingest requests may carry X-Producer and X-Batch-Seq headers; a batch
// whose producer sequence was already acknowledged is re-acked as a
// duplicate without being applied, making retries after a lost ack
// idempotent.
func (s *Server) Handler() *http.ServeMux {
	mux := daemon.NewMux(s.cfg.Registry, s.tracer)
	mux.HandleFunc("POST /ingest", s.instrument("ingest", s.handleIngest))
	mux.HandleFunc("POST /label", s.instrument("label", s.handleLabel))
	mux.HandleFunc("GET /model", s.instrument("model", s.handleModel))
	mux.HandleFunc("GET /stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /wal", s.handleWALTail)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /promote", s.handlePromote)
	mux.HandleFunc("POST /fence", s.handleFence)
	mux.HandleFunc("POST /epoch", s.handleEpoch)
	mux.HandleFunc("GET /hist", s.instrument("hist", s.handleHist))
	mux.HandleFunc("POST /hist/install", s.instrument("hist_install", s.handleHistInstall))
	return mux
}

// instrument times a handler into the per-endpoint latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.tel.httpSec.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason,omitempty"`
		WALLag uint64 `json:"wal_lag_records,omitempty"`
	}
	resp := readiness{Ready: true}
	s.drainMu.RLock()
	if s.draining {
		resp = readiness{Reason: "draining"}
	}
	s.drainMu.RUnlock()
	if wal := s.wal.Load(); resp.Ready && wal != nil {
		ws := wal.Stats()
		if ws.Err != "" {
			resp = readiness{Reason: "wal wedged: " + ws.Err}
		} else if cov := s.coveredSeq.Load(); ws.LastSeq > cov {
			resp.WALLag = ws.LastSeq - cov
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// readBatch validates and decodes the request body into a pooled Batch
// whose matrix aliases the (pooled, alignment-padded) body buffer when
// the host allows it. The caller owns the result and must Release it —
// the ingest path hands that duty to the writer goroutine. A nil return
// means the response was already written.
func (s *Server) readBatch(w http.ResponseWriter, r *http.Request) *Batch {
	limit := int64(batchHeaderSize + 8*s.cfg.MaxBatchPoints*s.cfg.Stream.Dims)
	if r.ContentLength > limit {
		http.Error(w, fmt.Sprintf("%v: body is %d bytes, limit %d", ErrBatchTooLarge, r.ContentLength, limit),
			http.StatusRequestEntityTooLarge)
		return nil
	}
	var body []byte
	var bb *bodyBuffer
	if r.ContentLength >= 0 {
		// Pooled read sized by Content-Length: the float block lands
		// 8-byte aligned, which is what lets DecodeBatchAlias alias it
		// in place instead of copying.
		bb = acquireBody(int(r.ContentLength))
		body = bb.b[bodyAlignPad:]
		if _, err := io.ReadFull(r.Body, body); err != nil {
			releaseBody(bb)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil
		}
	} else {
		// Chunked request with no declared length: fall back to a plain
		// bounded read; the decoder copy-decodes if alignment is off. The
		// reader allows limit+1 bytes exactly so truncation is detectable:
		// a body that filled the extra byte was over the limit and gets the
		// same 413 as an oversized declared length, not a generic decode 400.
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, limit+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil
		}
		if int64(len(body)) > limit {
			http.Error(w, fmt.Sprintf("%v: chunked body exceeds %d bytes", ErrBatchTooLarge, limit),
				http.StatusRequestEntityTooLarge)
			return nil
		}
	}
	b, err := DecodeBatchAlias(body, s.cfg.MaxBatchPoints)
	if err != nil {
		if bb != nil {
			releaseBody(bb)
		}
		code := http.StatusBadRequest
		if errors.Is(err, ErrBatchTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return nil
	}
	b.body = bb
	if b.M.Cols != s.cfg.Stream.Dims {
		cols := b.M.Cols
		b.Release()
		http.Error(w, fmt.Sprintf("batch has %d dims, stream expects %d", cols, s.cfg.Stream.Dims), http.StatusBadRequest)
		return nil
	}
	return b
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ingestStart := time.Now()
	// Fencing first: a request carrying an epoch token newer than this
	// node's epoch means the node is a stale zombie — 412 before any
	// other answer (even the follower redirect would mislead: this node's
	// idea of the primary is as stale as its epoch). A fenced node takes
	// no writes at all.
	reqEpoch, ok := s.checkIngestEpoch(w, r)
	if !ok {
		return
	}
	if s.follower.Load() {
		// A replica never takes writes: answer with a typed redirect to
		// the primary before touching the body. 421 (not 3xx) because Go
		// clients transparently re-POST redirects, which would hide the
		// misdirection instead of surfacing it.
		s.rejectFollowerIngest(w, r)
		return
	}
	b := s.readBatch(w, r)
	if b == nil {
		return
	}
	rows := b.M.Rows
	producer := r.Header.Get("X-Producer")
	var pseq uint64
	if v := r.Header.Get("X-Batch-Seq"); v != "" {
		var err error
		pseq, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			b.Release()
			http.Error(w, "bad X-Batch-Seq: "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		b.Release()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	s.ingestMu.Lock()
	if s.fenced.Load() {
		// Re-check under ingestMu: a fence that landed after the entry
		// check must not let this batch into the WAL — demote() takes
		// ingestMu as its drain barrier, so a batch that passes here is
		// guaranteed to be applied before the role flips.
		s.ingestMu.Unlock()
		s.drainMu.RUnlock()
		b.Release()
		s.writeStaleEpoch(w, reqEpoch)
		return
	}
	if producer != "" && pseq > 0 && pseq <= s.lastSeen[producer] {
		s.ingestMu.Unlock()
		s.drainMu.RUnlock()
		b.Release()
		// A duplicate ack re-promises the original's durability. With the
		// WAL wedged that promise may not be keepable (the original's
		// group commit could be the very fsync that failed), so fail the
		// retry instead of acking it.
		if wal := s.wal.Load(); wal != nil {
			if err := wal.Wedged(); err != nil {
				s.tel.batchError.Inc()
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		s.duplicates.Add(1)
		s.tel.batchDuplicate.Inc()
		dup := map[string]any{"queued": 0, "duplicate": true}
		if e := s.clusterEpoch.Load(); e > 0 {
			w.Header().Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
			dup["epoch"] = e
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(dup)
		return
	}
	// Exact queue-full check: every enqueue holds ingestMu, so a passing
	// check cannot be invalidated before the insert below. Checking
	// before the WAL append means a backpressure rejection writes
	// nothing — no orphan records for unacknowledged batches.
	if len(s.queue) == cap(s.queue) {
		s.ingestMu.Unlock()
		s.drainMu.RUnlock()
		b.Release()
		s.rejected.Add(1)
		s.tel.batchRejected.Inc()
		// Retry-After carries whole seconds per RFC 9110, so the hint is
		// rounded UP (minimum 1): truncation would turn a sub-second hint
		// into "0", telling well-behaved clients to retry immediately and
		// defeating the backpressure. The precise hint rides a dedicated
		// millisecond header for the Go client.
		secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set("X-Retry-After-Ms", strconv.FormatInt(s.cfg.RetryAfter.Milliseconds(), 10))
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	// The batch is past validation, dedupe, and backpressure: it will be
	// acknowledged (or fail loudly). Start its trace; the "ingest" span
	// covers decode, validation, and the accept-path locking so far.
	// A traceparent header joins the caller's distributed trace — the
	// ingest→wal_append→fsync→apply chain becomes child spans of the
	// client's (or router's) trace, reconstructable across processes by
	// the shared trace ID.
	var tr *obs.Trace
	if pc, ok := obs.ExtractTraceparent(r.Header); ok {
		tr = s.tracer.StartLinked("ingest_batch", pc,
			obs.KV("points", rows), obs.KV("producer", producer), obs.KV("pseq", pseq))
	} else {
		tr = s.tracer.Start("ingest_batch",
			obs.KV("points", rows), obs.KV("producer", producer), obs.KV("pseq", pseq))
	}
	tr.AddSpan("ingest", ingestStart, time.Since(ingestStart))
	seq := s.nextSeq + 1
	waitDurable := false
	wal := s.wal.Load()
	if wal != nil {
		wstart := time.Now()
		// Two-part append: the small header is framed into a reusable
		// buffer and the raw KB2B bytes ride as-is — the WAL concatenates
		// them into one record without this path copying the batch.
		s.walHdrBuf = encodeWALEntryHeader(s.walHdrBuf[:0], producer, pseq)
		res, err := wal.Append(s.walHdrBuf, b.Raw())
		if err != nil {
			s.ingestMu.Unlock()
			s.drainMu.RUnlock()
			b.Release()
			// The batch was NOT acknowledged and is not in the queue;
			// the contract holds. The WAL is wedged, so /readyz now
			// fails and every further ingest lands here until the
			// operator intervenes.
			s.tel.batchError.Inc()
			tr.AddAttrs(obs.KV("error", err.Error()))
			tr.Finish()
			s.logf("ingest: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		seq = res.Seq
		waitDurable = s.fsync == FsyncAlways
		s.tel.walAppends.Inc()
		s.tel.walAppendBytes.Add(int64(res.Bytes))
		tr.AddSpan("wal_append", wstart, time.Since(wstart),
			obs.KV("seq", res.Seq), obs.KV("bytes", res.Bytes))
	}
	s.nextSeq = seq
	if producer != "" && pseq > 0 {
		s.lastSeen[producer] = pseq
	}
	tr.AddAttrs(obs.KV("seq", seq))
	if waitDurable {
		// The trace has two finishers from here on: the writer (after
		// apply) and this handler (after the durability wait). The trace
		// seals on whichever finishes second.
		tr.RequireFinishes(2)
	}
	// The enqueue span is recorded before the send: once the item is in
	// the queue the writer goroutine owns (and may immediately finish)
	// the trace.
	tr.AddSpan("enqueue", time.Now(), 0, obs.KV("queue_len", len(s.queue)))
	// Guaranteed not to block: the capacity check above is exact under
	// ingestMu. The select is a belt-and-braces fallback.
	select {
	case s.queue <- ingestItem{batch: b, seq: seq, producer: producer, pseq: pseq, trace: tr}:
	default:
		s.ingestMu.Unlock()
		s.drainMu.RUnlock()
		b.Release()
		s.tel.batchError.Inc()
		tr.AddAttrs(obs.KV("error", "queue full after wal append"))
		tr.Finish()
		if waitDurable {
			tr.Finish() // the writer will never see this batch; finish its share too
		}
		http.Error(w, "ingest queue full", http.StatusTooManyRequests)
		return
	}
	s.ingestMu.Unlock()
	s.drainMu.RUnlock()
	// Pipelined commit: the batch is already queued — the writer may be
	// applying it while its fsync is still in flight — and the durability
	// wait happens outside the locks, so concurrent producers coalesce
	// onto one group-commit fsync instead of serializing behind each
	// other's.
	if waitDurable {
		fstart := time.Now()
		sw, err := wal.WaitDurable(seq)
		if err != nil {
			// The batch is queued (the stream will still apply it) but its
			// durability could not be confirmed: no ack. The WAL is wedged
			// and /readyz fails until the operator intervenes.
			s.tel.batchError.Inc()
			tr.AddAttrs(obs.KV("error", err.Error()))
			tr.Finish()
			s.logf("ingest: %v", err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		tr.AddSpan("fsync", fstart, time.Since(fstart),
			obs.KV("group", sw.Group), obs.KV("coalesced", sw.Coalesced))
		if sw.Coalesced {
			s.tel.walCoalesced.Inc()
		} else {
			s.tel.walGroupSize.Observe(float64(sw.Group))
		}
		tr.Finish()
	}
	if s.fenced.Load() {
		// Late-ack fencing: a fence landed while this batch waited on the
		// group commit. The batch is durable locally and will be drained
		// by the demotion, but a 202 now would be a promise made past the
		// fence line — the caller must re-send to the new primary instead.
		s.writeStaleEpoch(w, reqEpoch)
		return
	}
	s.accepted.Add(int64(rows))
	s.tel.acceptedPoints.Add(int64(rows))
	s.tel.batchAccepted.Inc()
	ack := map[string]any{"queued": rows, "seq": seq}
	if e := s.clusterEpoch.Load(); e > 0 {
		// The ack carries the epoch so clients learn fencing news from
		// normal traffic (and arm their own tokens for zombie rejection).
		w.Header().Set("X-KB2-Epoch", strconv.FormatInt(e, 10))
		ack["epoch"] = e
	}
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(ack)
}

// labelResponse is the /label reply. ModelGen 0 means no model has been
// published yet (warmup) and every label is noise.
type labelResponse struct {
	Labels   []int `json:"labels"`
	ModelGen int64 `json:"model_gen"`
	Clusters int   `json:"clusters"`
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	b := s.readBatch(w, r)
	if b == nil {
		return
	}
	defer b.Release()
	rows := b.M.Rows
	resp := labelResponse{Labels: make([]int, rows)}
	m, gen := s.servingModel()
	if m == nil {
		for i := range resp.Labels {
			resp.Labels[i] = -1
		}
	} else {
		resp.ModelGen = gen
		resp.Clusters = m.K()
		for i := 0; i < rows; i++ {
			l, err := m.Assign(b.M.Row(i))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp.Labels[i] = l
		}
	}
	s.labeled.Add(int64(rows))
	s.tel.labeledPoints.Add(int64(rows))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m, gen := s.servingModel()
	if m == nil {
		http.Error(w, "no model yet (stream warming up)", http.StatusNotFound)
		return
	}
	blob := m.Encode()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Gen", strconv.FormatInt(gen, 10))
	w.Write(blob)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// --- WAL entry / checkpoint-metadata codecs -------------------------------

// WAL entry (little endian): producerLen u16 | producer | producerSeq u64
// | raw KB2B batch bytes. The batch rides in its wire form so replay goes
// through the same batch validation as live traffic. The header is framed
// separately (appended into dst, which the ingest path reuses) and handed
// to WAL.Append alongside the raw bytes, so the batch payload is never
// copied on the accept path.
func encodeWALEntryHeader(dst []byte, producer string, pseq uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(producer)))
	dst = append(dst, producer...)
	return binary.LittleEndian.AppendUint64(dst, pseq)
}

// encodeWALEntry is the single-buffer form (tests and tools).
func encodeWALEntry(producer string, pseq uint64, raw []byte) []byte {
	return append(encodeWALEntryHeader(make([]byte, 0, 2+len(producer)+8+len(raw)), producer, pseq), raw...)
}

func decodeWALEntry(entry []byte) (producer string, pseq uint64, raw []byte, err error) {
	if len(entry) < 2 {
		return "", 0, nil, fmt.Errorf("wal entry truncated")
	}
	plen := int(binary.LittleEndian.Uint16(entry))
	if len(entry) < 2+plen+8 {
		return "", 0, nil, fmt.Errorf("wal entry truncated (producer len %d)", plen)
	}
	producer = string(entry[2 : 2+plen])
	pseq = binary.LittleEndian.Uint64(entry[2+plen:])
	raw = entry[2+plen+8:]
	return producer, pseq, raw, nil
}

// Checkpoint metadata (the v2 stream-checkpoint meta section): version u8
// | coveredSeq u64 | nproducers u32 | per producer: len u16 | id | seq
// u64. coveredSeq is the newest WAL sequence whose batch is contained in
// the checkpointed stream; the producer map restores the idempotency
// horizon so replayed or retried duplicates stay deduplicated across
// restarts.
const walCkptMetaVersion = 1

type walCkptMeta struct {
	coveredSeq uint64
	producers  map[string]uint64
}

func encodeWALCkptMeta(coveredSeq uint64, producers map[string]uint64) []byte {
	out := make([]byte, 0, 1+8+4+len(producers)*24)
	out = append(out, walCkptMetaVersion)
	out = binary.LittleEndian.AppendUint64(out, coveredSeq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(producers)))
	for p, q := range producers {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint64(out, q)
	}
	return out
}

func decodeWALCkptMeta(meta []byte) (walCkptMeta, error) {
	m := walCkptMeta{producers: map[string]uint64{}}
	if len(meta) == 0 {
		return m, nil // v1 checkpoint: no durability metadata
	}
	if meta[0] != walCkptMetaVersion {
		return m, fmt.Errorf("checkpoint meta version %d unsupported", meta[0])
	}
	if len(meta) < 1+8+4 {
		return m, fmt.Errorf("checkpoint meta truncated")
	}
	m.coveredSeq = binary.LittleEndian.Uint64(meta[1:])
	n := int(binary.LittleEndian.Uint32(meta[9:]))
	off := 13
	for i := 0; i < n; i++ {
		if len(meta) < off+2 {
			return m, fmt.Errorf("checkpoint meta truncated at producer %d", i)
		}
		plen := int(binary.LittleEndian.Uint16(meta[off:]))
		off += 2
		if len(meta) < off+plen+8 {
			return m, fmt.Errorf("checkpoint meta truncated at producer %d", i)
		}
		p := string(meta[off : off+plen])
		off += plen
		m.producers[p] = binary.LittleEndian.Uint64(meta[off:])
		off += 8
	}
	if off != len(meta) {
		return m, fmt.Errorf("checkpoint meta has %d trailing bytes", len(meta)-off)
	}
	return m, nil
}
