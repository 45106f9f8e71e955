package core

import (
	"fmt"
	"testing"

	"keybin2/internal/cluster"
	"keybin2/internal/eval"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func TestStreamWarmupThenLabels(t *testing.T) {
	spec := synth.AutoMixture(3, 10, 6, 1, xrand.New(40))
	src := spec.Stream(6000, xrand.New(41))
	st, err := NewStream(StreamConfig{Config: Config{Seed: 42}, Dims: 10, Warmup: 500, Period: 500})
	if err != nil {
		t.Fatal(err)
	}
	var pred, truth []int
	for {
		x, label, ok := src.Next()
		if !ok {
			break
		}
		got, err := st.Ingest(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seen() <= 500 {
			if got != cluster.Noise {
				t.Fatalf("warmup point %d labeled %d", st.Seen(), got)
			}
			continue
		}
		pred = append(pred, got)
		truth = append(truth, label)
	}
	if st.Seen() != 6000 {
		t.Fatalf("seen %d", st.Seen())
	}
	if st.Snapshot() == nil {
		t.Fatal("no model after stream")
	}
	// Evaluate only post-warmup points; drop the unlabeled noise share.
	labeled := 0
	for _, l := range pred {
		if l != cluster.Noise {
			labeled++
		}
	}
	if float64(labeled)/float64(len(pred)) < 0.8 {
		t.Fatalf("only %d/%d streamed points labeled", labeled, len(pred))
	}
	_, _, f1 := eval.PrecisionRecallF1(pred, truth)
	t.Logf("stream: k=%d f1=%.3f", st.Snapshot().K(), f1)
	if f1 < 0.5 {
		t.Fatalf("stream f1 %.3f", f1)
	}
}

func TestStreamWithRawRangesNoWarmup(t *testing.T) {
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(43))
	ranges := make([][2]float64, 6)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12} // generous bound on the mixture
	}
	st, err := NewStream(StreamConfig{Config: Config{Seed: 44}, Dims: 6, RawRanges: ranges, Period: 400})
	if err != nil {
		t.Fatal(err)
	}
	src := spec.Stream(2000, xrand.New(45))
	labeledAfterFirstRefit := 0
	total := 0
	for {
		x, _, ok := src.Next()
		if !ok {
			break
		}
		got, err := st.Ingest(x)
		if err != nil {
			t.Fatal(err)
		}
		if st.Seen() > 400 {
			total++
			if got != cluster.Noise {
				labeledAfterFirstRefit++
			}
		}
	}
	if st.Snapshot() == nil {
		t.Fatal("no model")
	}
	if float64(labeledAfterFirstRefit)/float64(total) < 0.7 {
		t.Fatalf("labeled %d/%d after first refit", labeledAfterFirstRefit, total)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(StreamConfig{}); err == nil {
		t.Fatal("Dims required")
	}
	if _, err := NewStream(StreamConfig{Dims: 4, RawRanges: make([][2]float64, 2)}); err == nil {
		t.Fatal("range count mismatch must fail")
	}
	st, err := NewStream(StreamConfig{Config: Config{Seed: 1}, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest([]float64{1}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	// Refit before warmup is a no-op, not an error.
	if err := st.Refit(); err != nil {
		t.Fatal(err)
	}
	g, err := NewGlobalModelState(StreamConfig{Config: Config{Seed: 1}, Dims: 3,
		RawRanges: fixedRanges(3, -1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := g.Sync(c, st); err == nil {
			t.Error("sync before warmup must fail")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if g.Model() != nil || g.Seen() != 0 {
		t.Fatalf("refused sync installed state: seen %d", g.Seen())
	}
}

func TestStreamDistributedSync(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(46))
	const ranks = 3
	type out struct {
		k     int
		trial int
		model string
	}
	results, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (out, error) {
		// Congruent histograms across ranks need fixed raw ranges; ranges
		// derived from each rank's own warmup would differ.
		cfg := StreamConfig{Config: Config{Seed: 47}, Dims: 8,
			RawRanges: fixedRanges(8, -12, 12), Period: 100000}
		st, err := NewStream(cfg)
		if err != nil {
			return out{}, err
		}
		g, err := NewGlobalModelState(cfg)
		if err != nil {
			return out{}, err
		}
		src := spec.Stream(1500, xrand.New(int64(148+c.Rank())))
		for {
			x, _, ok := src.Next()
			if !ok {
				break
			}
			if _, err := st.Ingest(x); err != nil {
				return out{}, err
			}
		}
		m, err := g.Sync(c, st)
		if err != nil {
			return out{}, err
		}
		if g.Seen() != 1500*ranks {
			return out{}, fmt.Errorf("synced seen %d want %d", g.Seen(), 1500*ranks)
		}
		if st.Seen() != 1500 {
			return out{}, fmt.Errorf("local stream seen %d after sync, want its own 1500", st.Seen())
		}
		if m != g.Model() {
			return out{}, fmt.Errorf("Sync returned a model other than the published global model")
		}
		return out{k: m.K(), trial: m.Trial, model: string(m.Encode())}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		if results[r] != results[0] {
			t.Fatalf("rank %d model differs: k=%d trial=%d vs k=%d trial=%d",
				r, results[r].k, results[r].trial, results[0].k, results[0].trial)
		}
	}
	if results[0].k < 2 {
		t.Fatalf("synced model k=%d", results[0].k)
	}
}

func fixedRanges(dims int, lo, hi float64) [][2]float64 {
	out := make([][2]float64, dims)
	for j := range out {
		out[j] = [2]float64{lo, hi}
	}
	return out
}

func TestStreamRepeatedSyncsConserveMass(t *testing.T) {
	// Three syncs over a growing stream: the global total after each sync
	// must equal the points ingested so far across all ranks — no double
	// counting of previously synced mass.
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(100))
	const ranks = 3
	const perPhase = 400
	totals, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]int, error) {
		cfg := StreamConfig{Config: Config{Seed: 101, Trials: 2}, Dims: 6,
			RawRanges: fixedRanges(6, -12, 12), Period: 1 << 30}
		st, err := NewStream(cfg)
		if err != nil {
			return nil, err
		}
		g, err := NewGlobalModelState(cfg)
		if err != nil {
			return nil, err
		}
		var seenAtSync []int
		src := spec.Stream(0, xrand.New(int64(102+c.Rank())))
		for round := 0; round < 3; round++ {
			for i := 0; i < perPhase; i++ {
				x, _, _ := src.Next()
				if _, err := st.Ingest(x); err != nil {
					return nil, err
				}
			}
			if _, err := g.Sync(c, st); err != nil {
				return nil, err
			}
			seenAtSync = append(seenAtSync, g.Seen())
		}
		return seenAtSync, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, seen := range totals {
		for round, got := range seen {
			want := ranks * perPhase * (round + 1)
			if got != want {
				t.Fatalf("rank %d sync %d: seen %d want %d", r, round, got, want)
			}
		}
	}
}

func TestStreamSyncRejectsDecay(t *testing.T) {
	st, err := NewStream(StreamConfig{Config: Config{Seed: 1}, Dims: 3,
		RawRanges: fixedRanges(3, -1, 1), DecayFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest([]float64{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Forgetting cannot be coordinated across ranks: neither a decaying
	// global state nor a decaying local stream can take part in a sync.
	if _, err := NewGlobalModelState(st.cfg); err == nil {
		t.Fatal("global state with decay must be rejected")
	}
	g, err := NewGlobalModelState(StreamConfig{Config: Config{Seed: 1}, Dims: 3,
		RawRanges: fixedRanges(3, -1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := g.Sync(c, st); err == nil {
			t.Error("sync with decay must be rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
