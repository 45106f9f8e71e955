package core

import (
	"testing"

	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// fuzzStreamConfig is small on purpose: 3 projected dims at depth 3 and
// a few hundred points keep a trial section under 2 KB, so mutations land
// on every field.
var fuzzStreamConfig = StreamConfig{
	Config: Config{Seed: 3, Trials: 2, Depth: 3}, Dims: 4,
	RawRanges: fixedRanges(4, -10, 10), Period: 200,
}

// fuzzStream returns a stream of the fuzz config fed n mixture points.
func fuzzStream(tb testing.TB, n int, seed int64) *Stream {
	tb.Helper()
	st, err := NewStream(fuzzStreamConfig)
	if err != nil {
		tb.Fatal(err)
	}
	src := synth.AutoMixture(3, 4, 6, 1, xrand.New(8)).Stream(0, xrand.New(seed))
	for i := 0; i < n; i++ {
		x, _, _ := src.Next()
		if _, err := st.Ingest(x); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// FuzzMergeShardStates feeds arbitrary bytes to the router's merge path —
// decode, fold, install — as a malformed /hist body would. Each step must
// return an error or a model, never panic.
func FuzzMergeShardStates(f *testing.F) {
	var states [][]byte
	for i, n := range []int{100, 400} {
		b, err := fuzzStream(f, n, int64(20+i)).EncodeShardState()
		if err != nil {
			f.Fatal(err)
		}
		states = append(states, b)
		f.Add(b)
	}
	merged, err := MergeShardStates(states...)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(merged)
	f.Fuzz(func(t *testing.T, b []byte) {
		merged, err := MergeShardStates(b, b)
		if err != nil {
			return
		}
		g, err := NewGlobalModelState(fuzzStreamConfig)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Install(merged); err != nil {
			return
		}
		if _, err := g.Install(merged); err != nil {
			t.Fatalf("second install of an accepted state: %v", err)
		}
	})
}

// FuzzDecodeStream feeds arbitrary bytes to checkpoint restore followed
// by a refit, as a corrupted checkpoint file would. Restore must return an
// error or a stream that refits without panicking.
func FuzzDecodeStream(f *testing.F) {
	for i, n := range []int{100, 400} {
		st := fuzzStream(f, n, int64(30+i))
		b, err := st.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		b, err = st.EncodeWithMeta([]byte("wal-seq"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeStream(fuzzStreamConfig, b)
		if err != nil {
			return
		}
		_ = st.Refit()
	})
}
