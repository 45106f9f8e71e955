package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

const (
	fitRanks     = 2
	batchDims    = 80
	batchPerRank = 50000
	batchQueries = 64 // 64-row label queries after each fit
	f1FloorBatch = 0.75
)

// world is a running in-process mpi world with each rank's share of the
// input already delivered to it.
type world struct {
	comms []*mpi.Comm
	close func()
	parts []*linalg.Matrix
}

// spawnWorld creates the in-process world and delivers the input: rank 0
// holds the generated data and sends every other rank its contiguous
// share over mpi, and all ranks meet at a barrier. This is the batch
// workload's set-up, timed as setup_s.
func spawnWorld(data *linalg.Matrix, ranks int) (*world, error) {
	comms, closeAll := mpi.NewWorld(ranks)
	w := &world{comms: comms, close: closeAll, parts: make([]*linalg.Matrix, ranks)}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *mpi.Comm) {
			defer wg.Done()
			errs[i] = func() error {
				lo, hi := synth.Shard(data.Rows, ranks, i)
				if i == 0 {
					for to := 1; to < ranks; to++ {
						tlo, thi := synth.Shard(data.Rows, ranks, to)
						if err := c.Send(to, 1, mpi.EncodeFloat64s(data.Data[tlo*data.Cols:thi*data.Cols])); err != nil {
							return err
						}
					}
					w.parts[0] = &linalg.Matrix{Rows: hi - lo, Cols: data.Cols, Data: data.Data[lo*data.Cols : hi*data.Cols]}
				} else {
					b, _, err := c.Recv(0, 1)
					if err != nil {
						return err
					}
					v, err := mpi.DecodeFloat64s(b)
					if err != nil {
						return err
					}
					w.parts[i] = &linalg.Matrix{Rows: hi - lo, Cols: data.Cols, Data: v}
				}
				return c.Barrier()
			}()
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("spawn world: %w", err)
		}
	}
	return w, nil
}

// fitOutcome is one FitDistributed across all ranks.
type fitOutcome struct {
	wall     time.Duration
	model    *core.Model
	labels   []int
	bytes    int64 // cross-rank payload, summed over ranks
	msgs     int64
	collB    map[string]int64 // per-collective bytes, summed over ranks
	collDur  time.Duration    // rank-mean time inside collectives
	accept   []time.Duration  // per rank: start → input accepted (see README)
	finish   []time.Duration  // per rank: accepted → fit returned
	allocMB  float64
	gcCycles uint32
}

// fit runs one FitDistributed on every rank of w and gathers its costs:
// exact mpi counts from Comm.Stats snapshots, collective timings from a
// collective observer, and Go allocation from runtime.ReadMemStats.
func (r *run) fit(w *world, cfg core.Config) (fitOutcome, error) {
	n := len(w.comms)
	out := fitOutcome{collB: map[string]int64{}, accept: make([]time.Duration, n), finish: make([]time.Duration, n)}
	before := make([]mpi.StatsSnapshot, n)
	events := make([][]mpi.CollectiveEvent, n)
	ends := make([][]time.Time, n)
	for i, c := range w.comms {
		before[i] = c.Stats().Snapshot()
		i := i
		c.SetCollectiveObserver(func(ev mpi.CollectiveEvent) {
			events[i] = append(events[i], ev)
			ends[i] = append(ends[i], time.Now())
		})
	}
	models := make([]*core.Model, n)
	labels := make([][]int, n)
	errs := make([]error, n)
	done := make([]time.Time, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fitID := r.tr.id()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range w.comms {
		wg.Add(1)
		go func(i int, c *mpi.Comm) {
			defer wg.Done()
			models[i], labels[i], errs[i] = core.FitDistributed(c, w.parts[i], cfg)
			done[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	out.wall = end.Sub(start)
	for i, c := range w.comms {
		c.SetCollectiveObserver(nil)
		if errs[i] != nil {
			return out, fmt.Errorf("rank %d: %w", i, errs[i])
		}
		after := c.Stats().Snapshot()
		out.bytes += after.Bytes - before[i].Bytes
		out.msgs += after.Messages - before[i].Messages
		for name, cs := range after.Collectives {
			out.collB[name] += cs.Bytes - before[i].Collectives[name].Bytes
		}
		for k, ev := range events[i] {
			out.collDur += ev.Dur
			if i == 0 {
				r.tr.add(0, fitID, fitID, "mpi", ends[i][k].Add(-ev.Dur), ends[i][k])
			}
		}
		// The rank's input is accepted once the world has agreed on the
		// projected ranges — the second collective of FitDistributed, after
		// every rank has projected all of its points.
		acc := done[i]
		if len(ends[i]) >= 2 {
			acc = ends[i][1]
		}
		out.accept[i] = acc.Sub(start)
		out.finish[i] = done[i].Sub(acc)
		out.labels = append(out.labels, labels[i]...)
	}
	out.collDur /= time.Duration(n)
	r.tr.add(fitID, 0, fitID, "fit", start, end)
	out.model = models[0]
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	out.gcCycles = m1.NumGC - m0.NumGC
	return out, nil
}

// fitStats accumulates fits for the fit_s, f1 and per-layer fit metrics.
type fitStats struct {
	walls, accepts, finishes []float64
	f1s                      []float64
	bytes                    []int64
	last                     fitOutcome
}

// add records one fit; with a nil truth its f1 is recorded as 0.
func (fs *fitStats) add(o fitOutcome, truth []int) float64 {
	f1 := 0.0
	if truth != nil {
		_, _, f1 = eval.PrecisionRecallF1(o.labels, truth)
	}
	fs.walls = append(fs.walls, o.wall.Seconds())
	for i := range o.accept {
		fs.accepts = append(fs.accepts, ms(o.accept[i]))
		fs.finishes = append(fs.finishes, ms(o.finish[i]))
	}
	fs.f1s = append(fs.f1s, f1)
	fs.bytes = append(fs.bytes, o.bytes)
	fs.last = o
	return f1
}

// report sets fit_s and, on traced runs, the mpi and go per-layer metrics
// of the last fit, and the core.fit kernels measured on data.
func (r *run) reportFits(fs *fitStats, data *linalg.Matrix, cfg core.Config) error {
	r.setE2E("fit_s", percentile(fs.walls, 50), "s")
	for i := 1; i < len(fs.f1s); i++ {
		if fs.f1s[i] != fs.f1s[0] || fs.bytes[i] != fs.bytes[0] {
			r.fail("fit %d is not a repeat: f1 %v vs %v, mpi bytes %d vs %d", i, fs.f1s[i], fs.f1s[0], fs.bytes[i], fs.bytes[0])
		}
	}
	if fs.f1s[0] != 0 {
		r.notes["fit_f1"] = fs.f1s[0]
	}
	r.notes["fits"] = len(fs.walls)
	if r.tr == nil {
		return nil
	}
	o := fs.last
	r.setLayer("mpi.bytes", float64(o.bytes), "bytes")
	r.setLayer("mpi.messages", float64(o.msgs), "count")
	r.setLayer("mpi.allreduce.bytes", float64(o.collB["allreduce"]), "bytes")
	r.setLayer("mpi.collective_ms", ms(o.collDur), "ms")
	r.setLayer("go.alloc_mb_per_fit", o.allocMB, "MB")
	r.setLayer("go.gc_cycles_per_fit", float64(o.gcCycles), "count")

	serialCfg := cfg
	serialCfg.Workers = 1
	kt, err := core.MeasureKernels(data, serialCfg, 1)
	if err != nil {
		return err
	}
	r.setLayer("core.fit.serial_s", kt.FitNsPerPoint*float64(data.Rows)/1e9, "s")
	r.setLayer("core.fit.key_assign_ns_per_pt", kt.KeyAssignNsPerPoint, "ns")
	r.setLayer("core.fit.tuple_count_ns_per_pt", kt.TupleCountNsPerPoint, "ns")
	if o.model.Projection != nil {
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := linalg.ParallelMul(nil, data, o.model.Projection, cfg.Workers); err != nil {
				return err
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		r.setLayer("core.fit.project_ms", ms(best), "ms")
	}
	return nil
}

func runBatchFit(r *run) error {
	rng := xrand.New(r.seed)
	spec := synth.AutoMixture(4, batchDims, 6, 1, xrand.New(specSeed))
	data, truth := spec.Sample(fitRanks*batchPerRank, rng.Split("data"))
	held, _ := spec.Sample(64*batchQueries, rng.Split("heldout"))
	queries := make([]*linalg.Matrix, batchQueries)
	for q := range queries {
		queries[q] = &linalg.Matrix{Rows: 64, Cols: batchDims, Data: held.Data[q*64*batchDims : (q+1)*64*batchDims]}
	}
	cfg := core.Config{Seed: r.seed}
	r.notes["input"] = map[string]any{"points": data.Rows, "dims": batchDims, "components": 4, "ranks": fitRanks,
		"bytes": 8 * len(data.Data)}

	// Set-up: spawn the world and deliver the input, five times; the last
	// world runs the fits.
	var setups []float64
	var w *world
	for rep := 0; rep < 5; rep++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = spawnWorld(data, fitRanks); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	r.setE2E("setup_s", percentile(setups, 50), "s")

	// The first fit is cold (lazy allocation, page faults); it is run and
	// recorded but not measured.
	cold, err := r.fit(w, cfg)
	if err != nil {
		return err
	}
	r.notes["cold_fit_s"] = cold.wall.Seconds()

	var fs fitStats
	var labelLat, late []float64
	period := time.Millisecond
	deadline := time.Now().Add(r.seconds)
	for len(fs.walls) < 3 || time.Now().Before(deadline) {
		o, err := r.fit(w, cfg)
		r.op(err == nil)
		if err != nil {
			return err
		}
		fs.add(o, truth)
		// The fitted model answers label queries on an open-loop schedule
		// before the next fit starts.
		sch := schedule{Start: time.Now(), Period: period}
		for q, qm := range queries {
			due := sch.due(q)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			_, err := o.model.AssignBatch(qm, 1)
			doneAt := time.Now()
			r.op(err == nil)
			if err != nil {
				return err
			}
			labelLat = append(labelLat, ms(doneAt.Sub(due)))
			late = append(late, ms(sch.lateness(q, sent)))
			r.tr.add(0, 0, 0, "label", due, doneAt)
		}
	}
	pts := float64(data.Rows)
	r.setE2E("applied_pts_per_s", pts/percentile(fs.walls, 50), "pts/s")
	r.setE2E("ack_ms.p50", percentile(fs.accepts, 50), "ms")
	r.setP99("ack_ms.p99", fs.accepts)
	r.setE2E("visible_lag_ms.p50", percentile(fs.finishes, 50), "ms")
	r.setP99("visible_lag_ms.p99", fs.finishes)
	r.setE2E("label_ms.p50", percentile(labelLat, 50), "ms")
	r.setP99("label_ms.p99", labelLat)
	r.setE2E("f1", fs.f1s[0], "ratio")
	if fs.f1s[0] < f1FloorBatch {
		r.fail("f1 %.4f below floor %.2f", fs.f1s[0], f1FloorBatch)
	}
	r.notes["label_samples"] = len(labelLat)
	if err := r.reportFits(&fs, data, cfg); err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", vmHWMMB(os.Getpid()), "MB")
	if r.tr != nil {
		r.setLayer("client.gen_late_ms.p99", percentile(late, 99), "ms")
		r.setLayer("client.refused_frac", 0, "ratio")
		r.setLayer("core.model.assign_ns_per_pt", assignNsPerPt(fs.last.model, held), "ns")
	}
	return nil
}

// assignNsPerPt times core.Model.Assign over rows, best of three passes.
func assignNsPerPt(m *core.Model, rows *linalg.Matrix) float64 {
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < rows.Rows; i++ {
			m.Assign(rows.Row(i))
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(rows.Rows)
}
