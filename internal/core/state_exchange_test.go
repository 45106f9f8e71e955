package core

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// feedShard ingests shard r's share of n more points of the shard
// fixture's mixture, dealt round-robin across k shards.
func feedShard(st *Stream, r, k, n int, seed int64) error {
	src := synth.AutoMixture(3, 4, 6, 1, xrand.New(8)).Stream(0, xrand.New(seed))
	for i := 0; i < n; i++ {
		x, _, _ := src.Next()
		if i%k != r {
			continue
		}
		if _, err := st.Ingest(x); err != nil {
			return err
		}
	}
	return nil
}

// One merge: an MPI sync over per-rank streams publishes, on every rank and
// at every epoch, the model the shard router derives from the same streams'
// states — including label stabilization carried from one epoch to the
// next.
func TestSyncEqualsRouterMerge(t *testing.T) {
	const ranks = 3
	cfg := StreamConfig{
		Config: Config{Seed: 7, Trials: 3}, Dims: 4,
		RawRanges: fixedRanges(4, -10, 10), Period: 1 << 30,
	}
	shards, _ := shardFixture(t, ranks, 3000)
	router, err := NewGlobalModelState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for epoch := 0; epoch < 2; epoch++ {
		for r, st := range shards {
			if err := feedShard(st, r, ranks, epoch*3000, 77); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeShardStates(encodeAll(t, shards)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := router.Install(merged)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m.Encode())
	}

	ranksShards, _ := shardFixture(t, ranks, 3000)
	got, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([][]byte, error) {
		g, err := NewGlobalModelState(cfg)
		if err != nil {
			return nil, err
		}
		var models [][]byte
		for epoch := 0; epoch < 2; epoch++ {
			st := ranksShards[c.Rank()]
			if err := feedShard(st, c.Rank(), ranks, epoch*3000, 77); err != nil {
				return nil, err
			}
			m, err := g.Sync(c, st)
			if err != nil {
				return nil, err
			}
			models = append(models, m.Encode())
		}
		return models, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		for epoch := range want {
			if !bytes.Equal(got[r][epoch], want[epoch]) {
				t.Fatalf("rank %d epoch %d: synced model differs from the router's merge", r, epoch)
			}
		}
	}
}

// A rank's local stream keeps only its own points, so it checkpoints and
// restores after a sync like any other stream.
func TestStreamCheckpointAfterSync(t *testing.T) {
	cfg := StreamConfig{Config: Config{Seed: 101, Trials: 2}, Dims: 6,
		RawRanges: fixedRanges(6, -12, 12), Period: 1 << 30}
	spec := synth.AutoMixture(2, 6, 6, 1, xrand.New(100))
	err := mpi.Run(2, func(c *mpi.Comm) error {
		st, err := NewStream(cfg)
		if err != nil {
			return err
		}
		g, err := NewGlobalModelState(cfg)
		if err != nil {
			return err
		}
		src := spec.Stream(0, xrand.New(int64(102+c.Rank())))
		for i := 0; i < 400; i++ {
			x, _, _ := src.Next()
			if _, err := st.Ingest(x); err != nil {
				return err
			}
		}
		if _, err := g.Sync(c, st); err != nil {
			return err
		}
		blob, err := st.Encode()
		if err != nil {
			t.Errorf("rank %d: checkpoint after sync: %v", c.Rank(), err)
			return nil
		}
		restored, err := DecodeStream(cfg, blob)
		if err != nil {
			t.Errorf("rank %d: restore after sync: %v", c.Rank(), err)
			return nil
		}
		if restored.Seen() != 400 {
			t.Errorf("rank %d: restored seen %d, want the rank's own 400", c.Rank(), restored.Seen())
		}
		a, err := st.EncodeShardState()
		if err != nil {
			return err
		}
		b, err := restored.EncodeShardState()
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			t.Errorf("rank %d: restored stream's shard state differs", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The sketch section is written in sorted key order, so a checkpoint is a
// pure function of the stream state: repeated encodes, and an encode after
// a restore round trip, are byte-identical.
func TestStreamCheckpointDeterministic(t *testing.T) {
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(110))
	cfg := StreamConfig{Config: Config{Seed: 111, Trials: 2}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 400}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runStreamPoints(t, st, spec, 1200, 112)
	meta := []byte("wal-seq 1200")
	first, err := st.EncodeWithMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	second, err := st.EncodeWithMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two encodes of one stream differ")
	}
	restored, err := DecodeStream(cfg, first)
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.EncodeWithMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("encode after a restore round trip differs")
	}
}

// A checkpoint written before the sketch section was sorted (its keys in
// map-iteration order) still decodes, labels a probe batch exactly as its
// writer's decode did, and resumes the stream — refits included — to the
// same labels. The fixture and its expected labels were produced by that
// earlier encoder from this config and data.
func TestStreamCheckpointMapOrderFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/checkpoint_map_order.kb2s")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/checkpoint_map_order.labels")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("labels fixture has %d lines, want 2", len(lines))
	}
	wantProbe, wantResume := parseLabels(t, lines[0]), parseLabels(t, lines[1])

	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(120))
	cfg := StreamConfig{Config: Config{Seed: 131, Trials: 2, Depth: 8}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 400}
	restored, meta, err := DecodeStreamMeta(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(meta) != "wal-seq 1200" {
		t.Fatalf("meta %q", meta)
	}
	probe, _ := spec.Sample(256, xrand.New(133))
	if probe.Rows != len(wantProbe) {
		t.Fatalf("%d probes, fixture has %d labels", probe.Rows, len(wantProbe))
	}
	for i := 0; i < probe.Rows; i++ {
		l, err := restored.Snapshot().Assign(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if l != wantProbe[i] {
			t.Fatalf("probe %d: label %d, fixture %d", i, l, wantProbe[i])
		}
	}
	resumed := runStreamPoints(t, restored, spec, len(wantResume), 134)
	for i := range resumed {
		if resumed[i] != wantResume[i] {
			t.Fatalf("resumed point %d: label %d, fixture %d", i, resumed[i], wantResume[i])
		}
	}
}

func parseLabels(t *testing.T, line string) []int {
	t.Helper()
	var out []int
	for _, f := range strings.Fields(line) {
		l, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}
