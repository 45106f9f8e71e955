// Streaming: in-situ clustering of an endless point stream whose
// distribution drifts mid-run. The engine keeps only histograms and key
// sketches — memory stays flat no matter how long the stream runs — and
// refits its partitions periodically, holding cluster labels stable across
// refits.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"keybin2/internal/cluster"
	"keybin2/internal/core"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func main() {
	const dims = 24

	// Phase 1 of the stream: three clusters. Phase 2: one of them moves
	// and a fourth appears — simulation state drifting between regimes.
	phase1 := synth.AutoMixture(3, dims, 6, 1, xrand.New(1))
	phase2 := synth.AutoMixture(4, dims, 6, 1, xrand.New(99))

	// Fixed raw ranges (the paper's "predetermined space range"): the
	// stream must be able to bin regimes it has not seen yet — ranges
	// derived from a warmup sample of phase 1 would clamp phase 2's
	// clusters into edge bins.
	ranges := make([][2]float64, dims)
	for j := range ranges {
		ranges[j] = [2]float64{-12, 12}
	}
	st, err := core.NewStream(core.StreamConfig{
		Config:    core.Config{Seed: 2, Trials: 4},
		Dims:      dims,
		RawRanges: ranges,
		Period:    2000,
		// Exponential forgetting: at every refit the histograms and key
		// sketches decay, so the phase-1 regime fades instead of
		// accumulating stale clusters forever.
		DecayFactor: 0.7,
	})
	if err != nil {
		log.Fatal(err)
	}

	ingest := func(name string, spec *synth.MixtureSpec, n int, seed int64) {
		src := spec.Stream(n, xrand.New(seed))
		seen := map[int]int{}
		noise := 0
		for {
			x, _, ok := src.Next()
			if !ok {
				break
			}
			label, err := st.Ingest(x)
			if err != nil {
				log.Fatal(err)
			}
			if label == cluster.Noise {
				noise++
			} else {
				seen[label]++
			}
		}
		fmt.Printf("[%s] after %d points: model sees %d clusters; this batch hit %d distinct labels (%d unlabeled)\n",
			name, st.Seen(), modelK(st), len(seen), noise)
	}

	ingest("phase 1 (3 clusters)", phase1, 6000, 3)
	ingest("phase 1 continued", phase1, 6000, 4)
	ingest("phase 2 (drifted, 4 clusters)", phase2, 8000, 5)
	ingest("phase 2 continued", phase2, 8000, 6)

	// Force a final refit and report the model's view of the stream.
	if err := st.Refit(); err != nil {
		log.Fatal(err)
	}
	m := st.Snapshot()
	fmt.Printf("final model: %d clusters (decay faded the drifted-away regime), projection trial %d, histogram-CH %.1f\n",
		m.K(), m.Trial, m.Assessment.CH)
	fmt.Printf("total ingested: %d points; histogram memory is independent of that count\n", st.Seen())
}

func modelK(st *core.Stream) int {
	if st.Snapshot() == nil {
		return 0
	}
	return st.Snapshot().K()
}
