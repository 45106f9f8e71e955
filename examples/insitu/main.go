// In-situ: the paper's deployment scenario end to end. Three ranks each
// run their own "simulation" (a protein-folding trajectory with different
// starting conditions), analyze frames in-situ with streaming KeyBin2, and
// periodically consolidate — exchanging only histograms and key sketches,
// never frames. Each sync is the shard router's merge run as an MPI
// collective: every rank's cumulative shard state is folded by Allreduce
// and installed into that rank's GlobalModelState, so every rank holds the
// same global model of the conformational space all simulations explored
// together. A checkpoint of that model is serialized for late-joining
// workers.
//
//	go run ./examples/insitu
package main

import (
	"bytes"
	"fmt"
	"log"

	"keybin2/internal/core"
	"keybin2/internal/mpi"
	"keybin2/internal/trajectory"
)

const (
	ranks    = 3
	residues = 40
	frames   = 3000
	syncEvry = 1000
)

func main() {
	type report struct {
		rank     int
		clusters int
		traffic  int64
		snapshot []byte
	}
	reports, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (report, error) {
		// Each rank simulates a different trajectory of the same protein
		// (different seed = different starting conditions), sharing the
		// same feature space.
		tr, err := trajectory.Generate(trajectory.Spec{
			Residues: residues, Frames: frames, Phases: 3,
			Seed: int64(100 + c.Rank()),
		})
		if err != nil {
			return report{}, err
		}
		feats := tr.Features()

		cfg := core.StreamConfig{
			Config: core.Config{Seed: 7, Trials: 3},
			Dims:   residues,
			// Secondary-structure codes live in [0, 5]; fixed ranges mean
			// no warmup and congruent histograms across ranks.
			RawRanges: ssRanges(residues),
			Period:    1 << 30, // the local stream never refits; the global model does
		}
		st, err := core.NewStream(cfg)
		if err != nil {
			return report{}, err
		}
		g, err := core.NewGlobalModelState(cfg)
		if err != nil {
			return report{}, err
		}

		for i := 0; i < feats.Rows; i++ {
			if _, err := st.Ingest(feats.Row(i)); err != nil {
				return report{}, err
			}
			// Periodic consolidation: the in-situ analysis keeps up with
			// the simulation, and all ranks converge on one global model.
			if (i+1)%syncEvry == 0 {
				m, err := g.Sync(c, st)
				if err != nil {
					return report{}, err
				}
				if c.Rank() == 0 {
					fmt.Printf("[sync @ frame %4d] global model: %d conformational clusters over %d frames from %d simulations\n",
						i+1, m.K(), g.Seen(), c.Size())
				}
			}
		}
		return report{
			rank:     c.Rank(),
			clusters: g.Model().K(),
			traffic:  c.Stats().Bytes(),
			snapshot: g.Model().Encode(),
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, r := range reports {
		fmt.Printf("rank %d: %d clusters, %d KiB sent total (raw frames would have been %d KiB/rank)\n",
			r.rank, r.clusters, r.traffic/1024, int64(frames)*int64(residues)*8/1024)
		if !bytes.Equal(r.snapshot, reports[0].snapshot) {
			log.Fatalf("rank %d holds a different global model than rank 0", r.rank)
		}
	}

	// A late-joining worker receives the serialized model and labels fresh
	// frames of the same system — a continuation of rank 0's simulation —
	// without any refit.
	model, err := core.DecodeModel(reports[0].snapshot)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := trajectory.Generate(trajectory.Spec{
		Residues: residues, Frames: 600, Phases: 3, Seed: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	feats := fresh.Features()
	labeled := 0
	for i := 0; i < feats.Rows; i++ {
		l, err := model.Assign(feats.Row(i))
		if err != nil {
			log.Fatal(err)
		}
		if l >= 0 {
			labeled++
		}
	}
	fmt.Printf("\nlate joiner: checkpointed model (%d bytes) labeled %d/%d fresh frames with no refit\n",
		len(reports[0].snapshot), labeled, feats.Rows)
}

func ssRanges(residues int) [][2]float64 {
	out := make([][2]float64, residues)
	for j := range out {
		out[j] = [2]float64{-0.5, 5.5}
	}
	return out
}
