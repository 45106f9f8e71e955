package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/trajectory"
	"keybin2/internal/xrand"
)

const (
	// specSeed fixes each workload's input distribution (mixture means and
	// spreads, the simulated protein); --seed draws the sample from it, so
	// runs on different seeds measure the same workload.
	specSeed     = 1
	setupReps    = 9
	labelRows    = 64
	drainTimeout = 60 * time.Second
)

// poolBatch is one pre-encoded ingest batch. Producers cycle through a
// fixed pool so the inputs stay small in memory however long a run is.
type poolBatch struct {
	m   *linalg.Matrix
	raw []byte
}

func makePool(n int, sample func() *linalg.Matrix) []poolBatch {
	pool := make([]poolBatch, n)
	for i := range pool {
		m := sample()
		pool[i] = poolBatch{m: m, raw: server.EncodeBatch(m)}
	}
	return pool
}

// heldOut is the labeled sample the benchmark sends through /label: its
// rows in 64-row KB2B queries, and the planted ground truth.
type heldOut struct {
	m       *linalg.Matrix
	truth   []int
	queries [][]byte
}

func newHeldOut(m *linalg.Matrix, truth []int) *heldOut {
	h := &heldOut{m: m, truth: truth}
	for lo := 0; lo+labelRows <= m.Rows; lo += labelRows {
		q := &linalg.Matrix{Rows: labelRows, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+labelRows)*m.Cols]}
		h.queries = append(h.queries, server.EncodeBatch(q))
	}
	// Rows past the last whole query are dropped from the sample.
	n := len(h.queries) * labelRows
	h.m = &linalg.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
	h.truth = truth[:n]
	return h
}

// batchRec is one ingest batch's life: when it was due (open loop), sent,
// acknowledged and first seen applied, and the sequence the acking node
// gave it.
type batchRec struct {
	idx      int
	rows     int
	producer string
	pseq     uint64
	node     string
	seq      uint64
	due      time.Time
	sent     time.Time
	acked    time.Time
	visible  time.Time
	probe    bool   // sent by a per-layer probe: not a latency sample
	span     uint64 // trace ID of the batch: its "batch" span, parent of "ingest"
}

// sendBatch posts rec's batch, resending the same producer sequence after
// each 429, and fills in sent/acked/seq/node. Every attempt counts as an
// operation; refusals count as failed ones.
func (r *run) sendBatch(ctx context.Context, c *conn, base string, raw []byte, rec *batchRec, refused *int64) error {
	rec.sent = time.Now()
	rec.span = r.tr.id()
	for {
		ack, ref, err := c.ingest(ctx, base, raw, rec.producer, rec.pseq)
		r.op(err == nil && !ref)
		if err != nil {
			return err
		}
		if ref {
			*refused++
			time.Sleep(time.Millisecond)
			continue
		}
		rec.acked = time.Now()
		if ack.Duplicate {
			r.fail("batch %s/%d acked as a duplicate", rec.producer, rec.pseq)
		}
		rec.seq, rec.node = ack.Seq, base
		if ack.Shard != "" {
			rec.node = ack.Shard
		}
		r.tr.add(0, rec.span, rec.span, "ingest", rec.sent, rec.acked)
		return nil
	}
}

// spawnSingle starts one keybin2d with flags (plus a fresh -wal-dir when
// wal is set) setupReps times, timing spawn → /readyz each time, and
// keeps the last one running.
func (r *run) spawnSingle(flags []string, wal bool) (*fleet, string, error) {
	var setups []float64
	var p *proc
	for rep := 0; rep < setupReps; rep++ {
		args := append([]string(nil), flags...)
		walDir := filepath.Join(r.work, "data", fmt.Sprintf("wal-%d", rep))
		if wal {
			args = append(args, "-wal-dir", walDir)
		}
		t0 := time.Now()
		var err error
		if p, err = spawn(filepath.Join(r.bin, "keybin2d"), filepath.Join(r.work, fmt.Sprintf("keybin2d-%d.log", rep)), args...); err != nil {
			return nil, "", err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = waitReady(ctx, p.url)
		cancel()
		if err != nil {
			p.kill()
			return nil, "", err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.flags["keybin2d"] = p.args
		if rep < setupReps-1 {
			if err := p.stop(30 * time.Second); err != nil {
				return nil, "", err
			}
			os.RemoveAll(walDir)
		}
	}
	r.setE2E("setup_s", percentile(setups, 50), "s")
	return &fleet{procs: []*proc{p}}, p.url, nil
}

// drain polls base's /stats until seen reaches want, resolving pending
// visibility on the way, and returns when the last point was seen
// applied. Single-node only: the pending batches are keyed by base.
func (r *run) drain(c *conn, base string, want int64, pend *pendingSet) (time.Time, nodeStats, error) {
	deadline := time.Now().Add(drainTimeout)
	for {
		st, err := c.stats(context.Background(), base)
		now := time.Now()
		if err != nil {
			return now, st, err
		}
		if pend != nil {
			pend.resolve(base, st.AppliedSeq, now)
		}
		if st.Seen >= want {
			return now, st, nil
		}
		if now.After(deadline) {
			return now, st, fmt.Errorf("drain: %s at %d of %d points after %v", base, st.Seen, want, drainTimeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// A producer asks /stats whether its batch is visible back to back for
// statsSpin after the ack — a Go sleep shorter than a millisecond lasts
// about a millisecond here, too coarse for sub-millisecond lags — and
// every statsPoll after that.
const (
	statsSpin = 2 * time.Millisecond
	statsPoll = time.Millisecond
)

// waitVisible polls base's /stats until rec is applied (resolving every
// pending batch the answers cover) or, when until is set, until that
// time passes.
func (r *run) waitVisible(c *conn, base string, rec *batchRec, pend *pendingSet, until time.Time) error {
	spinUntil := time.Now().Add(statsSpin)
	for {
		st, err := c.stats(context.Background(), base)
		now := time.Now()
		r.op(err == nil)
		if err != nil {
			return err
		}
		pend.resolve(base, st.AppliedSeq, now)
		pend.sampleQueue(st.QueueLen)
		if pend.visible(rec) || (!until.IsZero() && now.Add(statsPoll).After(until)) {
			return nil
		}
		if now.After(spinUntil) {
			time.Sleep(statsPoll)
		}
	}
}

// ackAndLag sets the ack and visibility metrics from the non-probe recs.
func (r *run) ackAndLag(recs []*batchRec, openLoop bool) {
	var acks, lags []float64
	missing := 0
	recs = append([]*batchRec(nil), recs...)
	sortByAck(recs)
	for _, b := range recs {
		if b.probe {
			continue
		}
		from := b.sent
		if openLoop {
			from = b.due
		}
		acks = append(acks, ms(b.acked.Sub(from)))
		if b.visible.IsZero() {
			missing++
			continue
		}
		lags = append(lags, ms(b.visible.Sub(b.acked)))
		r.tr.add(b.span, 0, b.span, "batch", b.sent, b.visible)
	}
	if missing > 0 {
		r.fail("%d acked batches never observed visible", missing)
	}
	r.setE2E("ack_ms.p50", percentile(acks, 50), "ms")
	r.setP99("ack_ms.p99", acks)
	r.setE2E("visible_lag_ms.p50", percentile(lags, 50), "ms")
	r.setP99("visible_lag_ms.p99", lags)
	r.notes["ack_samples"], r.notes["lag_samples"] = len(acks), len(lags)
}

// appliedCheck verifies that points applied equal points acked exactly
// and sets applied_pts_per_s.
func (r *run) appliedCheck(recs []*batchRec, seen0, seen1 int64, dup0, dup1 int64, tLast time.Time) {
	var acked int64
	first := time.Time{}
	for _, b := range recs {
		acked += int64(b.rows)
		if first.IsZero() || b.sent.Before(first) {
			first = b.sent
		}
	}
	if seen1-seen0 != acked {
		r.fail("seen grew by %d but %d points were acked", seen1-seen0, acked)
	}
	if dup1 != dup0 {
		r.fail("%d duplicate applies", dup1-dup0)
	}
	r.setE2E("applied_pts_per_s", float64(seen1-seen0)/tLast.Sub(first).Seconds(), "pts/s")
	r.notes["points_applied"] = seen1 - seen0
	r.notes["applied_window_s"] = tLast.Sub(first).Seconds()
}

// labelsF1 labels every held-out query once (closed loop, untimed) and
// scores the labels against the planted truth.
func (r *run) labelsF1(c *conn, base string, h *heldOut, floor float64) error {
	var pred []int
	for _, q := range h.queries {
		l, err := c.label(context.Background(), base, q)
		r.op(err == nil)
		if err != nil {
			return err
		}
		pred = append(pred, l...)
	}
	_, _, f1 := eval.PrecisionRecallF1(pred, h.truth)
	r.setE2E("f1", f1, "ratio")
	if f1 < floor {
		r.fail("f1 %.4f below floor %.2f", f1, floor)
	}
	return nil
}

// labelLoop sends held-out queries on an open-loop schedule and returns
// each query's latency from its due time and the generator's lateness.
func (r *run) labelLoop(c *conn, base string, h *heldOut, sch schedule, n int) (lat, late []float64, err error) {
	for i := 0; i < n; i++ {
		due := sch.due(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		_, err := c.label(context.Background(), base, h.queries[i%len(h.queries)])
		done := time.Now()
		r.op(err == nil)
		if err != nil {
			return lat, late, err
		}
		lat = append(lat, ms(done.Sub(due)))
		late = append(late, ms(sch.lateness(i, sent)))
		r.tr.add(0, 0, 0, "label", due, done)
	}
	return lat, late, nil
}

// refFit fits at least refFits times and for at least refFitTime.
const (
	refFits    = 10
	refFitTime = 3 * time.Second
)

// refFit is the streaming workloads' fit_s: core.FitDistributed on two
// in-process ranks over every distinct point the run sent plus the
// held-out sample — the batch alternative to the stream.
func (r *run) refFit(pool []poolBatch, h *heldOut) error {
	data := linalg.NewMatrix(0, h.m.Cols)
	for _, b := range pool {
		data.Data = append(data.Data, b.m.Data...)
		data.Rows += b.m.Rows
	}
	data.Data = append(data.Data, h.m.Data...)
	data.Rows += h.m.Rows
	cfg := core.Config{Seed: r.seed}
	w, err := spawnWorld(data, fitRanks)
	if err != nil {
		return err
	}
	defer w.close()
	// A first, cold fit pays for page faults and lazy allocation; it is
	// not measured.
	if _, err := r.fit(w, cfg); err != nil {
		return err
	}
	var fs fitStats
	for end := time.Now().Add(refFitTime); len(fs.walls) < refFits || time.Now().Before(end); {
		o, err := r.fit(w, cfg)
		r.op(err == nil)
		if err != nil {
			return err
		}
		fs.add(o, nil)
	}
	return r.reportFits(&fs, data, cfg)
}

// scrapeAll scrapes /metrics from every URL (traced runs only).
func (r *run) scrapeAll(c *conn, urls []string) ([]scrape, error) {
	if r.tr == nil {
		return nil, nil
	}
	out := make([]scrape, len(urls))
	for i, u := range urls {
		s, err := c.metrics(context.Background(), u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// serverLayers sets the per-layer metrics read from keybin2d /metrics
// deltas, summed over the given nodes.
func (r *run) serverLayers(before, after []scrape) {
	var fsync, ingest, label, refit, install histDelta
	var appends, fsyncs float64
	merge := func(acc *histDelta, h histDelta) {
		acc.Sum += h.Sum
		acc.Count += h.Count
		if acc.Bounds == nil {
			acc.Bounds, acc.Counts = h.Bounds, append([]float64(nil), h.Counts...)
		} else {
			for i := range h.Counts {
				acc.Counts[i] += h.Counts[i]
			}
		}
	}
	for i := range before {
		b, a := before[i], after[i]
		merge(&fsync, histogramDelta(b, a, "keybin2d_wal_fsync_seconds", ""))
		merge(&ingest, histogramDelta(b, a, "keybin2d_http_request_seconds", `endpoint="ingest"`))
		merge(&label, histogramDelta(b, a, "keybin2d_http_request_seconds", `endpoint="label"`))
		merge(&refit, histogramDelta(b, a, "keybin2d_stage_seconds", `stage="refit"`))
		merge(&install, histogramDelta(b, a, "keybin2d_merge_install_seconds", ""))
		appends += delta(b, a, "keybin2d_wal_appends_total")
		fsyncs += delta(b, a, "keybin2d_wal_fsyncs_total")
	}
	r.setLayer("server.wal.fsync_ms.p50", 1000*fsync.Quantile(0.5), "ms")
	r.setLayer("server.wal.fsync_ms.p99", 1000*fsync.Quantile(0.99), "ms")
	bpf := 0.0
	if fsyncs > 0 {
		bpf = appends / fsyncs
	}
	r.setLayer("server.wal.batches_per_fsync", bpf, "count")
	r.setLayer("server.http.ingest_ms.mean", 1000*ingest.Mean(), "ms")
	r.setLayer("server.http.label_ms.mean", 1000*label.Mean(), "ms")
	r.setLayer("server.stage.refit_ms.mean", 1000*refit.Mean(), "ms")
	r.setLayer("server.merge.install_ms.mean", 1000*install.Mean(), "ms")
	r.notes["server_refit_stage_count"] = refit.Count
	if fsyncs == 0 {
		r.absent["server.wal.fsync_ms.p50"] = "no WAL on this workload"
		r.absent["server.wal.fsync_ms.p99"] = "no WAL on this workload"
		r.absent["server.wal.batches_per_fsync"] = "no WAL on this workload"
	}
}

// --- ingest-durable --------------------------------------------------------

const (
	durableDims    = 16
	durableRows    = 1024
	durableQueries = 1000
	f1FloorDurable = 0.8
)

func runIngestDurable(r *run) error {
	rng := xrand.New(r.seed)
	spec := synth.AutoMixture(4, durableDims, 6, 1, xrand.New(specSeed))
	prng := rng.Split("pool")
	pool := makePool(48, func() *linalg.Matrix { m, _ := spec.Sample(durableRows, prng); return m })
	hm, ht := spec.Sample(labelRows*durableQueries, rng.Split("heldout"))
	h := newHeldOut(hm, ht)
	r.notes["input"] = map[string]any{"batch_rows": durableRows, "dims": durableDims, "pool_batches": len(pool),
		"pool_bytes": len(pool) * len(pool[0].raw), "components": 4}

	flags := []string{"-dims", strconv.Itoa(durableDims), "-seed", "1", "-period", "1000", "-trials", "5",
		"-queue-depth", "64", "-fsync", "always"}
	f, url, err := r.spawnSingle(flags, true)
	if err != nil {
		return err
	}
	defer f.stop()
	ctl := newConn()
	defer ctl.close()
	st0, err := ctl.stats(context.Background(), url)
	if err != nil {
		return err
	}
	m0, err := r.scrapeAll(ctl, []string{url})
	if err != nil {
		return err
	}

	// Closed loop: two producers, each sending its next batch once its
	// previous one is visible in /stats. Waiting on the ack alone would let
	// acked-but-unapplied batches fill the queue until the daemon refuses
	// ingest with 429s; waiting on visibility keeps one batch per producer
	// in the daemon, so the writer always has the other producer's batch
	// queued behind the one it applies.
	restoreGC := quietGC()
	var pend pendingSet
	deadline := time.Now().Add(r.seconds * 3 / 4)
	recsBy := make([][]*batchRec, 2)
	refusedBy := make([]int64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			producer := fmt.Sprintf("durable-%d", p)
			for k := 0; time.Now().Before(deadline); k++ {
				idx := (p + 2*k) % len(pool)
				rec := &batchRec{idx: idx, rows: durableRows, producer: producer, pseq: uint64(k + 1)}
				if errs[p] = r.sendBatch(context.Background(), c, url, pool[idx].raw, rec, &refusedBy[p]); errs[p] != nil {
					return
				}
				recsBy[p] = append(recsBy[p], rec)
				pend.add(url, rec)
				if errs[p] = r.waitVisible(c, url, rec, &pend, time.Time{}); errs[p] != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	recs := append(recsBy[0], recsBy[1]...)
	var acked int64
	for _, b := range recs {
		acked += int64(b.rows)
	}
	tLast, st1, err := r.drain(ctl, url, st0.Seen+acked, &pend)
	if err != nil {
		return err
	}
	r.appliedCheck(recs, st0.Seen, st1.Seen, st0.Duplicates, st1.Duplicates, tLast)
	if st1.Batches-st0.Batches != int64(len(recs)) {
		r.fail("daemon applied %d batches, %d were acked", st1.Batches-st0.Batches, len(recs))
	}
	r.ackAndLag(recs, false)

	// Labels: open loop at 500 queries/s on the idle daemon for the last
	// quarter of the run, timed from the due time.
	sch := schedule{Start: time.Now(), Period: 2 * time.Millisecond}
	lat, late, err := r.labelLoop(ctl, url, h, sch, int(r.seconds/4/sch.Period))
	if err != nil {
		return err
	}
	if why := openLoopCheck(durations(late), sch.Period); why != "" {
		r.fail("label generator invalid: %s", why)
	}
	r.setE2E("label_ms.p50", percentile(lat, 50), "ms")
	r.setP99("label_ms.p99", lat)
	if err := r.labelsF1(ctl, url, h, f1FloorDurable); err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", f.peakRSSMB(), "MB")
	restoreGC()
	if err := r.refFit(pool, h); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}

	m1, err := r.scrapeAll(ctl, []string{url})
	if err != nil {
		return err
	}
	r.serverLayers(m0, m1)
	r.clientLayers(refusedBy[0]+refusedBy[1], int64(len(recs)), late)
	r.setLayer("server.queue.len.mean", mean(pend.queue), "count")
	if err := r.wireLayers(pool); err != nil {
		return err
	}
	cfg := core.StreamConfig{Config: core.Config{Trials: 5, Seed: 1}, Dims: durableDims, Period: 1000}
	if err := r.replayLayers(cfg, recs, pool, st1.Refits-st0.Refits, tLast.Sub(earliest(recs))); err != nil {
		return err
	}
	return r.modelLayer(ctl, url, h)
}

// --- insitu-mixed ----------------------------------------------------------

const (
	insituResidues = 193 // Table 3's mean residue count
	insituFrames   = 12000
	insituChunk    = 32                    // frames per ingest batch
	insituPeriod   = 5 * time.Millisecond  // one chunk per period: 6400 frames/s
	insituLabelP   = 5 * time.Millisecond  // reader: one 64-row /label per period
	insituStatsP   = 50 * time.Millisecond // reader: one /stats sample per period
	f1FloorInsitu  = 0.5
)

func runInsituMixed(r *run) error {
	// The simulated protein is fixed and the simulation sends its frames
	// from the first; the seed picks which meta-stable frames are held out
	// for /label (one in six).
	tr, err := trajectory.Generate(trajectory.Spec{Name: "bench", Residues: insituResidues, Frames: insituFrames, Seed: specSeed})
	if err != nil {
		return err
	}
	feats := tr.Features()
	rng := xrand.New(r.seed)
	var sendRows, heldRows []int
	for i := 0; i < insituFrames; i++ {
		if tr.Phase[i] >= 0 && rng.Intn(6) == 0 {
			heldRows = append(heldRows, i)
		} else {
			sendRows = append(sendRows, i)
		}
	}
	pick := func(rows []int) *linalg.Matrix {
		m := linalg.NewMatrix(len(rows), feats.Cols)
		for j, i := range rows {
			copy(m.Row(j), feats.Row(i))
		}
		return m
	}
	held := pick(heldRows)
	truth := make([]int, len(heldRows))
	for j, i := range heldRows {
		truth[j] = tr.Phase[i]
	}
	h := newHeldOut(held, truth)
	k := 0
	pool := makePool(len(sendRows)/insituChunk, func() *linalg.Matrix {
		m := pick(sendRows[k : k+insituChunk])
		k += insituChunk
		return m
	})
	tr, feats = nil, nil // the pool and the held-out sample are all the run needs
	r.notes["input"] = map[string]any{"residues": insituResidues, "chunk_frames": insituChunk,
		"pool_batches": len(pool), "pool_bytes": len(pool) * len(pool[0].raw), "heldout_frames": h.m.Rows,
		"offered_frames_per_s": float64(insituChunk) / insituPeriod.Seconds()}

	// Shipped defaults: no WAL. The durable write path is ingest-durable's;
	// here the ack is the admission to the queue.
	flags := []string{"-dims", strconv.Itoa(insituResidues), "-seed", "1", "-period", "1000", "-trials", "5",
		"-queue-depth", "64"}
	f, url, err := r.spawnSingle(flags, false)
	if err != nil {
		return err
	}
	defer f.stop()
	ctl := newConn()
	defer ctl.close()
	st0, err := ctl.stats(context.Background(), url)
	if err != nil {
		return err
	}
	m0, err := r.scrapeAll(ctl, []string{url})
	if err != nil {
		return err
	}

	restoreGC := quietGC()
	var pend pendingSet
	start := time.Now().Add(5 * time.Millisecond)
	n := int(r.seconds / insituPeriod)
	var wg sync.WaitGroup
	// The simulation: one chunk per period, sent at its due time whether
	// or not the daemon kept up. Between sends it polls /stats until its
	// latest batch is visible or the next chunk falls due.
	var recs []*batchRec
	var ingLate []float64
	var refused int64
	var ingErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		sch := schedule{Start: start, Period: insituPeriod}
		for i := 0; i < n; i++ {
			due := sch.due(i)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			idx := i % len(pool)
			rec := &batchRec{idx: idx, rows: pool[idx].m.Rows, producer: "simulation", pseq: uint64(i + 1), due: due}
			if ingErr = r.sendBatch(context.Background(), c, url, pool[idx].raw, rec, &refused); ingErr != nil {
				return
			}
			ingLate = append(ingLate, ms(sch.lateness(i, rec.sent)))
			recs = append(recs, rec)
			pend.add(url, rec)
			if ingErr = r.waitVisible(c, url, rec, &pend, sch.due(i+1).Add(-statsPoll)); ingErr != nil {
				return
			}
		}
	}()
	// The analysis reader: /label on its own schedule, /stats samples of
	// the backlog on another.
	var lat, lblLate, queue []float64
	var rdErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		lsch := schedule{Start: start.Add(insituLabelP / 2), Period: insituLabelP}
		ssch := schedule{Start: start, Period: insituStatsP}
		end := start.Add(time.Duration(n) * insituPeriod)
		li, si := 0, 0
		for {
			ld, sd := lsch.due(li), ssch.due(si)
			if ld.After(end) && sd.After(end) {
				return
			}
			if sd.Before(ld) {
				time.Sleep(time.Until(sd))
				st, err := c.stats(context.Background(), url)
				r.op(err == nil)
				if err != nil {
					rdErr = err
					return
				}
				queue = append(queue, float64(st.QueueLen))
				si++
				continue
			}
			time.Sleep(time.Until(ld))
			sent := time.Now()
			_, err := c.label(context.Background(), url, h.queries[li%len(h.queries)])
			done := time.Now()
			r.op(err == nil)
			if err != nil {
				rdErr = err
				return
			}
			lat = append(lat, ms(done.Sub(ld)))
			lblLate = append(lblLate, ms(lsch.lateness(li, sent)))
			r.tr.add(0, 0, 0, "label", ld, done)
			li++
		}
	}()
	wg.Wait()
	if ingErr != nil {
		return ingErr
	}
	if rdErr != nil {
		return rdErr
	}
	var acked int64
	for _, b := range recs {
		acked += int64(b.rows)
	}
	tLast, st1, err := r.drain(ctl, url, st0.Seen+acked, &pend)
	if err != nil {
		return err
	}
	r.appliedCheck(recs, st0.Seen, st1.Seen, st0.Duplicates, st1.Duplicates, tLast)
	r.ackAndLag(recs, true)
	r.setE2E("label_ms.p50", percentile(lat, 50), "ms")
	r.setP99("label_ms.p99", lat)
	r.notes["label_samples"] = len(lat)
	// Open-loop validity: neither generator fell behind, the backlog did
	// not grow, and the daemon kept up with the offered volume.
	if why := openLoopCheck(durations(ingLate), insituPeriod); why != "" {
		r.fail("simulation generator invalid: %s", why)
	}
	if why := openLoopCheck(durations(lblLate), insituLabelP); why != "" {
		r.fail("label generator invalid: %s", why)
	}
	if why := backlogCheck(queue, 2); why != "" {
		r.fail("backlog: %s", why)
	}
	if lag := tLast.Sub(recs[len(recs)-1].acked); lag > 10*insituPeriod {
		r.fail("daemon fell behind the offered volume: last point applied %v after its ack", lag)
	}
	if err := r.labelsF1(ctl, url, h, f1FloorInsitu); err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", f.peakRSSMB(), "MB")
	restoreGC()
	if err := r.refFit(pool, h); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	m1, err := r.scrapeAll(ctl, []string{url})
	if err != nil {
		return err
	}
	r.serverLayers(m0, m1)
	r.clientLayers(refused, int64(len(recs)), append(ingLate, lblLate...))
	r.setLayer("server.queue.len.mean", mean(queue), "count")
	if err := r.wireLayers(pool); err != nil {
		return err
	}
	cfg := core.StreamConfig{Config: core.Config{Trials: 5, Seed: 1}, Dims: insituResidues, Period: 1000}
	if err := r.replayLayers(cfg, recs, pool, st1.Refits-st0.Refits, tLast.Sub(earliest(recs))); err != nil {
		return err
	}
	return r.modelLayer(ctl, url, h)
}

// --- sharded-merge ---------------------------------------------------------

const (
	shardCount     = 3
	shardDims      = 16
	shardRows      = 1024
	shardProducers = 6
	shardComps     = 4
	shardRange     = 12.0
	shardLabelP    = 20 * time.Millisecond
	f1FloorSharded = 0.5
)

// mergeRec is one POST /merge round trip and its result.
type mergeRec struct {
	start, done time.Time
	res         mergeResult
}

type mergeResult struct {
	Epoch      int64 `json:"epoch"`
	MergedSeen int64 `json:"merged_seen"`
	Shards     int   `json:"shards_merged"`
	Installed  int   `json:"shards_installed"`
	StateBytes int   `json:"state_bytes"`
}

func (c *conn) merge(ctx context.Context, router string) (mergeResult, error) {
	var res mergeResult
	code, b, err := c.do(ctx, http.MethodPost, router+"/merge", []byte{}, nil)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK {
		return res, fmt.Errorf("merge: %d %s", code, strings.TrimSpace(string(b)))
	}
	return res, json.Unmarshal(b, &res)
}

func shardStreamConfig() core.StreamConfig {
	ranges := make([][2]float64, shardDims)
	for i := range ranges {
		ranges[i] = [2]float64{-shardRange, shardRange}
	}
	return core.StreamConfig{Config: core.Config{Trials: 5, Seed: 1}, Dims: shardDims, RawRanges: ranges, Period: 1 << 30}
}

// spawnSharded starts three shards and a router setupReps times, timing
// spawn → every /readyz, and keeps the last fleet running.
func (r *run) spawnSharded() (*fleet, string, []string, error) {
	rng := fmt.Sprintf("%g,%g", -shardRange, shardRange)
	common := []string{"-dims", strconv.Itoa(shardDims), "-seed", "1", "-trials", "5", "-range", rng}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		f := &fleet{}
		shards := make([]*proc, shardCount)
		errs := make([]error, shardCount)
		var wg sync.WaitGroup
		for i := range shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				args := append(append([]string(nil), common...), "-period", "1000000000",
					"-node-id", fmt.Sprintf("shard-%d", i), "-shard", fmt.Sprintf("shard-%d", i))
				shards[i], errs[i] = spawn(filepath.Join(r.bin, "keybin2d"),
					filepath.Join(r.work, fmt.Sprintf("shard-%d-%d.log", i, rep)), args...)
			}(i)
		}
		wg.Wait()
		var urls []string
		for i, p := range shards {
			if p != nil {
				f.procs = append(f.procs, p)
				urls = append(urls, p.url)
			}
			if errs[i] != nil {
				f.stop()
				return nil, "", nil, errs[i]
			}
		}
		args := append(append([]string(nil), common...), "-shards", strings.Join(urls, ","), "-merge-every", "0")
		rt, err := spawn(filepath.Join(r.bin, "keybin2router"), filepath.Join(r.work, fmt.Sprintf("router-%d.log", rep)), args...)
		if err != nil {
			f.stop()
			return nil, "", nil, err
		}
		f.procs = append(f.procs, rt)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = waitReady(ctx, append(urls, rt.url)...)
		cancel()
		if err != nil {
			f.stop()
			return nil, "", nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.flags["keybin2d(shard-0)"] = shards[0].args
		r.flags["keybin2router"] = rt.args
		if rep < setupReps-1 {
			if err := f.stop(); err != nil {
				return nil, "", nil, err
			}
			continue
		}
		r.setE2E("setup_s", percentile(setups, 50), "s")
		return f, rt.url, urls, nil
	}
	panic("unreachable")
}

func runShardedMerge(r *run) error {
	rng := xrand.New(r.seed)
	spec := synth.AutoMixture(shardComps, shardDims, 6, 1, xrand.New(specSeed))
	prng := rng.Split("pool")
	pool := makePool(48, func() *linalg.Matrix { m, _ := spec.Sample(shardRows, prng); return m })
	hm, ht := spec.Sample(labelRows*64, rng.Split("heldout"))
	h := newHeldOut(hm, ht)
	r.notes["input"] = map[string]any{"batch_rows": shardRows, "dims": shardDims, "components": shardComps,
		"pool_batches": len(pool), "pool_bytes": len(pool) * len(pool[0].raw), "producers": shardProducers}

	f, router, shards, err := r.spawnSharded()
	if err != nil {
		return err
	}
	defer f.stop()
	ctl := newConn()
	defer ctl.close()
	nodes := append(append([]string(nil), shards...), router)
	m0, err := r.scrapeAll(ctl, nodes)
	if err != nil {
		return err
	}

	restoreGC := quietGC()
	start := time.Now()
	deadline := start.Add(r.seconds)
	var wg sync.WaitGroup
	// Connection 1: closed-loop ingest through the router, round-robin
	// over producer IDs, with 64-row /label queries interleaved on an
	// open-loop schedule (sent before the next batch once due).
	var recs []*batchRec
	var lat, late []float64
	var refused int64
	pseqs := make([]uint64, shardProducers)
	var ingErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		lsch := schedule{Start: start, Period: shardLabelP}
		li := 0
		for k := 0; time.Now().Before(deadline); k++ {
			for due := lsch.due(li); !time.Now().Before(due); due = lsch.due(li) {
				sent := time.Now()
				_, err := c.label(context.Background(), router, h.queries[li%len(h.queries)])
				done := time.Now()
				r.op(err == nil)
				if err != nil {
					ingErr = err
					return
				}
				lat = append(lat, ms(done.Sub(due)))
				late = append(late, ms(lsch.lateness(li, sent)))
				r.tr.add(0, 0, 0, "label", due, done)
				li++
			}
			p := k % shardProducers
			pseqs[p]++
			idx := k % len(pool)
			rec := &batchRec{idx: idx, rows: shardRows, producer: fmt.Sprintf("sim-%d", p), pseq: pseqs[p]}
			if ingErr = r.sendBatch(context.Background(), c, router, pool[idx].raw, rec, &refused); ingErr != nil {
				return
			}
			recs = append(recs, rec)
		}
	}()
	// Connection 2: merge epochs back to back.
	var merges []mergeRec
	var mErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn()
		defer c.close()
		for time.Now().Before(deadline) {
			m := mergeRec{start: time.Now()}
			res, err := c.merge(context.Background(), router)
			m.done = time.Now()
			r.op(err == nil)
			if err != nil {
				if strings.Contains(err.Error(), "no shard states") {
					// Before the first batch lands there is nothing to merge.
					time.Sleep(time.Millisecond)
					continue
				}
				mErr = err
				return
			}
			m.res = res
			merges = append(merges, m)
			r.tr.add(0, 0, 0, "merge", m.start, m.done)
		}
	}()
	wg.Wait()
	if ingErr != nil {
		return ingErr
	}
	if mErr != nil {
		return mErr
	}
	if r.tr != nil {
		probes, err := r.proxyProbe(ctl, router, pool, &refused)
		if err != nil {
			return err
		}
		recs = append(recs, probes...)
	}

	var acked int64
	for _, b := range recs {
		acked += int64(b.rows)
	}
	tLast, st1, err := r.drain(ctl, router, acked, nil)
	if err != nil {
		return err
	}
	r.appliedCheck(recs, 0, st1.Seen, 0, 0, tLast)
	r.setE2E("label_ms.p50", percentile(lat, 50), "ms")
	r.setP99("label_ms.p99", lat)
	r.notes["label_samples"], r.notes["merges"] = len(lat), len(merges)
	if why := openLoopCheck(durations(late), shardLabelP); why != "" {
		r.fail("label generator invalid: %s", why)
	}

	// Final epoch: merged_seen = Σ shard seen = points sent, and one merge
	// epoch over the final shard states is byte-identical to one
	// core.Stream fed the same batches. (The served model is not compared:
	// after many epochs it keeps its projection trial by hysteresis and its
	// cluster ids by stabilization, so it matches only a stream with the
	// same refit history.) Batches acked after the last in-run epoch
	// started become visible with this one.
	fm := mergeRec{start: time.Now()}
	final, err := ctl.merge(context.Background(), router)
	fm.done, fm.res = time.Now(), final
	r.op(err == nil)
	if err != nil {
		return err
	}
	resolveByMerges(recs, append(merges, fm))
	r.ackAndLag(recs, false)
	var shardSeen, dups int64
	for _, u := range shards {
		st, err := ctl.stats(context.Background(), u)
		if err != nil {
			return err
		}
		shardSeen += st.Seen
		dups += st.Duplicates
	}
	if final.MergedSeen != shardSeen || shardSeen != acked {
		r.fail("merged_seen %d, Σ shard seen %d, points acked %d", final.MergedSeen, shardSeen, acked)
	}
	if dups != 0 {
		r.fail("%d duplicate applies on the shards", dups)
	}
	control, applyNs, err := r.controlStream(recs, pool)
	if err != nil {
		return err
	}
	reps := 1
	if r.tr != nil {
		reps = 3
	}
	fresh, err := r.freshMerges(ctl, shards, reps)
	if err != nil {
		return err
	}
	if string(fresh) != string(control) {
		r.fail("one merge epoch over the final shard states (%d bytes) differs from a single core.Stream fed the same batches (%d bytes)",
			len(fresh), len(control))
	}
	if err := r.labelsF1(ctl, router, h, f1FloorSharded); err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", f.peakRSSMB(), "MB")
	restoreGC()
	if err := r.refFit(pool, h); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}

	m1, err := r.scrapeAll(ctl, nodes)
	if err != nil {
		return err
	}
	r.serverLayers(m0[:shardCount], m1[:shardCount])
	rm := histogramDelta(m0[shardCount], m1[shardCount], "keybin2router_merge_seconds", "")
	r.setLayer("shardcluster.router_merge_ms.mean", 1000*rm.Mean(), "ms")
	r.clientLayers(refused, int64(len(recs)), late)
	var mergeMs []float64
	for _, m := range merges {
		mergeMs = append(mergeMs, ms(m.done.Sub(m.start)))
	}
	r.setLayer("shardcluster.merge_ms.p50", percentile(mergeMs, 50), "ms")
	r.setLayer("shardcluster.merge_ms.p99", percentile(mergeMs, 99), "ms")
	r.setLayer("shardcluster.merge_state_bytes", float64(final.StateBytes), "bytes")
	r.setLayer("shardcluster.merges", float64(len(merges)), "count")
	if err := r.wireLayers(pool); err != nil {
		return err
	}
	r.setLayer("core.stream.apply_ns_per_pt", applyNs, "ns")
	// Shards refit only at merge epochs: the writer's busy share is the
	// apply cost of every point over the shards' combined wall time.
	busy := float64(acked) * applyNs / 1e9 / (shardCount * tLast.Sub(earliest(recs)).Seconds())
	r.setLayer("core.stream.writer_busy_frac", busy, "ratio")
	return r.modelLayer(ctl, shards[0], h)
}

// resolveByMerges marks each batch visible at the completion of the first
// merge epoch that started after its ack and merged at least every point
// acked up to and including it (a necessary condition for the epoch to
// include the batch).
func resolveByMerges(recs []*batchRec, merges []mergeRec) {
	order := append([]*batchRec(nil), recs...)
	sortByAck(order)
	var cum int64
	m := 0
	for _, b := range order {
		cum += int64(b.rows)
		for m < len(merges) && (merges[m].start.Before(b.acked) || merges[m].res.MergedSeen < cum) {
			m++
		}
		if m == len(merges) {
			return
		}
		b.visible = merges[m].done
	}
}

// proxyProbe sends the same pool batches through the router and directly
// to the shard that owns the probe producer; the difference of the
// median acks is the router hop's cost.
func (r *run) proxyProbe(c *conn, router string, pool []poolBatch, refused *int64) ([]*batchRec, error) {
	const n = 40
	var recs []*batchRec
	var via, direct []float64
	for i := 0; i < 2*n; i++ {
		rec := &batchRec{idx: i % n, rows: shardRows, producer: "probe-router", pseq: uint64(i/2 + 1), probe: true}
		target := router
		if i%2 == 1 {
			rec.producer, target = "probe-direct", recs[0].node
		}
		if err := r.sendBatch(context.Background(), c, target, pool[rec.idx].raw, rec, refused); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		if target == router {
			via = append(via, ms(rec.acked.Sub(rec.sent)))
		} else {
			direct = append(direct, ms(rec.acked.Sub(rec.sent)))
		}
	}
	r.setLayer("shardcluster.proxy_ms.p50", percentile(via, 50)-percentile(direct, 50), "ms")
	return recs, nil
}

// controlStream feeds every acked batch into one core.Stream configured
// like the shards, refits once, and returns the encoded model and the
// stream's apply cost per point.
func (r *run) controlStream(recs []*batchRec, pool []poolBatch) ([]byte, float64, error) {
	st, err := core.NewStream(shardStreamConfig())
	if err != nil {
		return nil, 0, err
	}
	var busy time.Duration
	var pts int
	for _, b := range recs {
		t0 := time.Now()
		if _, err := st.IngestBatch(pool[b.idx].m); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		busy += d
		pts += b.rows
		r.tr.add(0, 0, 0, "apply", t0, t0.Add(d))
	}
	t0 := time.Now()
	if err := st.Refit(); err != nil {
		return nil, 0, err
	}
	if r.tr != nil {
		d := time.Since(t0)
		r.tr.add(0, 0, 0, "refit", t0, t0.Add(d))
		r.setLayer("core.stream.refit_ms.p50", ms(d), "ms")
		r.setLayer("core.stream.refit_ms.p99", ms(d), "ms")
		r.setLayer("core.stream.refits", 1, "count")
		_, keys := st.SketchSize()
		r.setLayer("core.stream.sketch_keys", float64(keys), "count")
		r.setLayer("core.stream.refit_frac", d.Seconds()/(d.Seconds()+busy.Seconds()), "ratio")
	}
	return st.Snapshot().Encode(), float64(busy.Nanoseconds()) / float64(pts), nil
}

// freshMerges runs the merge collective's three steps from outside, reps
// times: GET /hist on every shard, core.MergeShardStates over the pulled
// states, and core.GlobalModelState.Install of the merged bytes into a
// fresh authority (one epoch, no label history). It returns the encoded
// model and, on traced runs, sets the step timings.
func (r *run) freshMerges(c *conn, shards []string, reps int) ([]byte, error) {
	var export, fold, install []float64
	var merged, model []byte
	for rep := 0; rep < reps; rep++ {
		var states [][]byte
		for _, u := range shards {
			t0 := time.Now()
			code, b, err := c.do(context.Background(), http.MethodGet, u+"/hist", nil, nil)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("GET /hist: %d %v", code, err)
			}
			export = append(export, ms(time.Since(t0)))
			states = append(states, b)
		}
		t0 := time.Now()
		var err error
		if merged, err = core.MergeShardStates(states...); err != nil {
			return nil, err
		}
		fold = append(fold, ms(time.Since(t0)))
		g, err := core.NewGlobalModelState(shardStreamConfig())
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		m, err := g.Install(merged)
		if err != nil {
			return nil, err
		}
		install = append(install, ms(time.Since(t0)))
		model = m.Encode()
	}
	if r.tr != nil {
		r.setLayer("core.shardmerge.export_ms.p50", percentile(export, 50), "ms")
		r.setLayer("core.shardmerge.fold_ms.p50", percentile(fold, 50), "ms")
		r.setLayer("core.shardmerge.install_ms.p50", percentile(install, 50), "ms")
	}
	return model, nil
}

// --- shared per-layer helpers ----------------------------------------------

func (r *run) clientLayers(refused, batches int64, late []float64) {
	frac := 0.0
	if refused+batches > 0 {
		frac = float64(refused) / float64(refused+batches)
	}
	r.setLayer("client.refused_frac", frac, "ratio")
	r.setLayer("client.gen_late_ms.p99", percentile(late, 99), "ms")
}

// wireLayers times server.DecodeBatchAlias and WAL.Append on the run's
// own payloads.
func (r *run) wireLayers(pool []poolBatch) error {
	var pts int
	t0 := time.Now()
	for rep := 0; time.Since(t0) < 50*time.Millisecond || rep < 3; rep++ {
		for _, p := range pool {
			s := time.Now()
			b, err := server.DecodeBatchAlias(p.raw, 1<<20)
			if err != nil {
				return err
			}
			pts += b.M.Rows
			b.Release()
			r.tr.add(0, 0, 0, "decode", s, time.Now())
		}
	}
	r.setLayer("server.wire.decode_ns_per_pt", float64(time.Since(t0).Nanoseconds())/float64(pts), "ns")

	dir := filepath.Join(r.work, "data", "wal-replay")
	w, err := server.OpenWAL(server.WALConfig{Dir: dir, Fsync: server.FsyncNever})
	if err != nil {
		return err
	}
	// The daemon frames a small producer/sequence header ahead of the raw
	// batch; a header of the same size stands in for it.
	hdr := make([]byte, 2+len("producer-0")+8)
	var us []float64
	for i := 0; i < 300; i++ {
		s := time.Now()
		if _, err := w.Append(hdr, pool[i%len(pool)].raw); err != nil {
			w.Close()
			return err
		}
		e := time.Now()
		us = append(us, float64(e.Sub(s).Nanoseconds())/1e3)
		r.tr.add(0, 0, 0, "wal_append", s, e)
	}
	if err := w.Close(); err != nil {
		return err
	}
	os.RemoveAll(dir)
	r.setLayer("server.wal.append_us.p50", percentile(us, 50), "us")
	return nil
}

// replayLayers replays the acked batches, in the order the daemon applied
// them (ack sequence order), through core.Stream.IngestBatch. A first
// replay with refits switched off (Period beyond the run) gives the apply
// cost per point; a second, with the daemon's config, gives each refit's
// cost as the time of a call where Refits() advanced minus its rows'
// apply cost. The second replay must reproduce the daemon's refit count
// exactly.
func (r *run) replayLayers(cfg core.StreamConfig, recs []*batchRec, pool []poolBatch, daemonRefits int64, wall time.Duration) error {
	order := append([]*batchRec(nil), recs...)
	sortBySeq(order)
	noRefit := cfg
	noRefit.Period = 1 << 30
	st, err := core.NewStream(noRefit)
	if err != nil {
		return err
	}
	var applyDur time.Duration
	var applyPts int
	for i, b := range order {
		t0 := time.Now()
		if _, err := st.IngestBatch(pool[b.idx].m); err != nil {
			return err
		}
		d := time.Since(t0)
		if i > 0 { // the first call may carry the warmup's range set-up
			applyDur += d
			applyPts += b.rows
			r.tr.add(0, 0, 0, "apply", t0, t0.Add(d))
		}
	}
	applyNs := float64(applyDur.Nanoseconds()) / float64(max(applyPts, 1))

	if st, err = core.NewStream(cfg); err != nil {
		return err
	}
	var refitMs []float64
	var refitTotal float64
	for _, b := range order {
		before := st.Refits()
		t0 := time.Now()
		if _, err := st.IngestBatch(pool[b.idx].m); err != nil {
			return err
		}
		d := time.Since(t0)
		if n := st.Refits() - before; n > 0 {
			per := (float64(d.Nanoseconds()) - float64(b.rows)*applyNs) / float64(n) / 1e6
			for i := 0; i < n; i++ {
				refitMs = append(refitMs, per)
			}
			refitTotal += per * float64(n)
			r.tr.add(0, 0, 0, "refit", t0, t0.Add(d))
		}
	}
	if int64(st.Refits()) != daemonRefits {
		r.fail("replay refit %d times, the daemon %d", st.Refits(), daemonRefits)
	}
	var pts int
	for _, b := range order {
		pts += b.rows
	}
	applyTotal := float64(pts) * applyNs / 1e6
	r.setLayer("core.stream.apply_ns_per_pt", applyNs, "ns")
	r.setLayer("core.stream.refit_ms.p50", percentile(refitMs, 50), "ms")
	r.setLayer("core.stream.refit_ms.p99", percentile(refitMs, 99), "ms")
	r.setLayer("core.stream.refits", float64(st.Refits()), "count")
	r.setLayer("core.stream.writer_busy_frac", (applyTotal+refitTotal)/1e3/wall.Seconds(), "ratio")
	r.setLayer("core.stream.refit_frac", refitTotal/(applyTotal+refitTotal), "ratio")
	_, keys := st.SketchSize()
	r.setLayer("core.stream.sketch_keys", float64(keys), "count")
	return nil
}

// modelLayer fetches the served model and times core.Model.Assign on the
// held-out rows.
func (r *run) modelLayer(c *conn, base string, h *heldOut) error {
	code, b, err := c.do(context.Background(), http.MethodGet, base+"/model", nil, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /model: %d %v", code, err)
	}
	m, err := core.DecodeModel(b)
	if err != nil {
		return err
	}
	r.setLayer("core.model.assign_ns_per_pt", assignNsPerPt(m, h.m), "ns")
	return nil
}

func durations(msv []float64) []time.Duration {
	out := make([]time.Duration, len(msv))
	for i, v := range msv {
		out[i] = time.Duration(v * 1e6)
	}
	return out
}

func earliest(recs []*batchRec) time.Time {
	t := recs[0].sent
	for _, b := range recs {
		if b.sent.Before(t) {
			t = b.sent
		}
	}
	return t
}
