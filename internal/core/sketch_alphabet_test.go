package core

import (
	"testing"

	"keybin2/internal/keys"
)

// alphabetStream returns a Depth-3 stream (8 coarse bins per dimension,
// 3 projected dims) with some ingested mass and one sketch cell whose last
// component, 20, lies outside the 8-bin alphabet — what a foreign or
// corrupted checkpoint or /hist body can carry. Refit indexes its segment
// table by sketch components, so such a key must never reach it.
func alphabetStream(t *testing.T) (StreamConfig, *Stream) {
	t.Helper()
	cfg := StreamConfig{Config: Config{Seed: 1, Trials: 1, Depth: 3, TargetDims: 3}, Dims: 3,
		RawRanges: fixedRanges(3, -4, 4), Period: 1 << 30}
	st, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := float64(i%7) - 3
		if _, err := st.Ingest([]float64{v, -v, v / 2}); err != nil {
			t.Fatal(err)
		}
	}
	st.sketch[0].add(keys.Key{0, 0, 20}, 1)
	return cfg, st
}

func TestCheckpointRejectsOutOfAlphabetSketchKey(t *testing.T) {
	cfg, st := alphabetStream(t)
	blob, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStream(cfg, blob); err == nil {
		t.Fatal("checkpoint with sketch component 20 of 8 coarse bins decoded")
	}
}

func TestShardStateRejectsOutOfAlphabetSketchKey(t *testing.T) {
	cfg, st := alphabetStream(t)
	state, err := st.EncodeShardState()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGlobalModelState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeShardStates(state)
	if err == nil {
		_, err = g.Install(merged)
	}
	if err == nil {
		t.Fatal("shard state with sketch component 20 of 8 coarse bins installed")
	}
}
