package core

import (
	"fmt"

	"keybin2/internal/histogram"
	"keybin2/internal/mpi"
)

// Shard-state exchange: the serving-layer form of the paper's
// histogram-only communication. Each keybin2d shard ingests a partition of
// the producer stream into its own histograms and key sketches; what
// shards exchange is never raw points but an encoded ShardState — the
// cumulative per-trial histogram sets and coarse tuple-mass sketches. A
// merge coordinator (the shard router) folds K shard states with
// MergeShardStates and derives one global model from the sum with
// GlobalModelState; the encoded model (which carries its stabilized
// labels on the wire) is then installed on every shard, so the whole
// cluster labels identically. GlobalModelState.Sync runs the same steps as
// an MPI Allreduce for in-situ ranks.
//
// The exchange is cumulative, not delta-based: every epoch each shard
// re-publishes its full local contribution. That costs a little bandwidth
// (the payload is bounded by bins and occupied sketch cells, never by
// stream length) and buys crash-trivial semantics — a shard that missed an
// epoch, died, or restarted from its checkpoint simply publishes its
// cumulative state at the next epoch and the merged total is correct
// again, with no per-peer delta bookkeeping to repair.
//
// ShardState wire format (little endian):
//
//	magic "KB2H" | version u32 | trials u32 | seen u64
//	per trial: the checkpoint's per-trial section (appendTrialState) —
//	  setLen u32 | histogram.Set.Encode bytes
//	  nkeys u32, per key: width u32 | key u32×width | mass f64
//	  (keys sorted, so equal states encode identically)
//
// Version 2 carries f64 masses; they stay exact because shard mode has no
// decay and every ingested point adds mass 1. The state is exchanged live
// and never persisted, so version 1 is simply refused.

const shardStateMagic = "KB2H"
const shardStateVersion = 2

// EncodeShardState packages this stream's cumulative local contribution
// for the cross-shard merge: per trial, the full histogram set and the
// coarse key sketch.
//
// Writer-goroutine only, like Ingest/Refit: it reads the live histograms.
// It fails before warmup completes (serve shards with predetermined
// RawRanges so there is no warmup buffer and shard histograms are
// congruent by construction) and when DecayFactor is active (forgetting
// cannot be coordinated across shards).
func (s *Stream) EncodeShardState() ([]byte, error) {
	if s.sets == nil {
		return nil, fmt.Errorf("core: shard state before warmup completed")
	}
	if f := s.cfg.DecayFactor; f > 0 && f < 1 {
		return nil, fmt.Errorf("core: shard state is incompatible with DecayFactor")
	}
	return encodeShardState(&shardState{seen: uint64(s.seen), sets: s.sets, sketch: s.sketch}), nil
}

// shardState is a decoded ShardState payload.
type shardState struct {
	seen   uint64
	sets   []*histogram.Set
	sketch []*trialSketch
}

func decodeShardState(b []byte) (*shardState, error) {
	if len(b) < 8 || string(b[:4]) != shardStateMagic {
		return nil, fmt.Errorf("core: not a shard state (missing %q header)", shardStateMagic)
	}
	r := &wireReader{buf: b, off: 4}
	if v := r.u32(); v != shardStateVersion {
		return nil, fmt.Errorf("core: shard state version %d unsupported", v)
	}
	trials := int(r.u32())
	if trials <= 0 || trials > 1<<16 {
		return nil, fmt.Errorf("core: absurd shard state trial count %d", trials)
	}
	st := &shardState{
		seen:   r.u64(),
		sets:   make([]*histogram.Set, trials),
		sketch: make([]*trialSketch, trials),
	}
	for t := 0; t < trials; t++ {
		set, sk, err := readTrialState(r)
		if err != nil {
			return nil, fmt.Errorf("core: shard state trial %d: %w", t, err)
		}
		st.sets[t], st.sketch[t] = set, sk
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes in shard state", len(b)-r.off)
	}
	return st, nil
}

// encodeShardState serializes a live, decoded, or merged state. Because
// histogram sets encode positionally and sketches in sorted key order,
// equal states produce identical bytes — which is what makes the merge's
// output independent of shard order.
func encodeShardState(st *shardState) []byte {
	w := &wireWriter{}
	w.buf = append(w.buf, shardStateMagic...)
	w.u32(shardStateVersion)
	w.u32(uint32(len(st.sets)))
	w.u64(st.seen)
	for t, set := range st.sets {
		appendTrialState(w, set, st.sketch[t])
	}
	return w.buf
}

// MergeShardStates folds K encoded shard states into one: per trial,
// bin-wise histogram sums and key-mass sums. The merge is commutative
// and associative — sums of integer-valued masses, exact in any grouping
// — and the encoding is canonical (sorted keys), so any permutation or
// parenthesization of the same states yields byte-identical output.
// Congruence (same trial count, dimensions, depth, and ranges — guaranteed
// when every shard runs the identical StreamConfig) is validated and
// mismatches are errors.
func MergeShardStates(states ...[]byte) ([]byte, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("core: merge of zero shard states")
	}
	acc, err := decodeShardState(states[0])
	if err != nil {
		return nil, err
	}
	for i, b := range states[1:] {
		st, err := decodeShardState(b)
		if err != nil {
			return nil, fmt.Errorf("core: shard state %d: %w", i+1, err)
		}
		if len(st.sets) != len(acc.sets) {
			return nil, fmt.Errorf("core: shard state %d has %d trials, expected %d", i+1, len(st.sets), len(acc.sets))
		}
		for t := range acc.sets {
			if err := acc.sets[t].Merge(st.sets[t]); err != nil {
				return nil, fmt.Errorf("core: shard state %d trial %d: %w", i+1, t, err)
			}
			acc.sketch[t].merge(st.sketch[t])
		}
		acc.seen += st.seen
	}
	return encodeShardState(acc), nil
}

// GlobalModelState is the cross-shard label-stabilization authority: one
// instance (owned by the merge coordinator) turns each epoch's merged
// shard state into the cluster's global model. It wraps a Stream whose
// histograms are replaced wholesale every epoch, so Refit's deterministic
// partitioning runs on the merged totals and stabilizeLabels carries
// cluster identities across epochs exactly as a single node's periodic
// refits would. Because the state machine lives in ONE place and the
// resulting model is shipped to shards in encoded form (which carries the
// stabilized labels on the wire), shards that missed epochs rejoin with
// the identical model — they never re-derive labels locally.
//
// All methods are single-goroutine: the coordinator serializes epochs.
type GlobalModelState struct {
	s *Stream
}

// NewGlobalModelState builds the merge authority for a cluster whose
// shards all run cfg. Predetermined RawRanges are required — they are what
// makes every shard's histograms congruent without a warmup buffer — and
// DecayFactor must be off, mirroring EncodeShardState.
func NewGlobalModelState(cfg StreamConfig) (*GlobalModelState, error) {
	if cfg.RawRanges == nil {
		return nil, &StreamConfigError{Field: "RawRanges",
			Reason: "cross-shard merge needs predetermined ranges so every shard bins into congruent histograms"}
	}
	if f := cfg.DecayFactor; f != 0 {
		return nil, &StreamConfigError{Field: "DecayFactor",
			Reason: "forgetting cannot be coordinated across shards"}
	}
	st, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return &GlobalModelState{s: st}, nil
}

// Install adopts a merged shard state as the new global totals and refits,
// returning the published global model. Identical inputs against an
// identical install history produce identical models — Refit is
// deterministic and label stabilization is a pure function of the
// previous install's model.
func (g *GlobalModelState) Install(merged []byte) (*Model, error) {
	st, err := decodeShardState(merged)
	if err != nil {
		return nil, err
	}
	if len(st.sets) != len(g.s.sets) {
		return nil, fmt.Errorf("core: merged state has %d trials, config %d", len(st.sets), len(g.s.sets))
	}
	for t, set := range st.sets {
		if err := g.s.checkTrialSet(t, set); err != nil {
			return nil, fmt.Errorf("core: merged state trial %d: %w", t, err)
		}
	}
	g.s.sets, g.s.sketch = st.sets, st.sketch
	g.s.seen = int(g.s.sets[0].Total())
	if err := g.s.Refit(); err != nil {
		return nil, err
	}
	return g.s.Snapshot(), nil
}

// Sync is the merge collective over MPI: every rank contributes its local
// stream's shard state, the states are folded with MergeShardStates by
// Allreduce, and each rank installs the sum. Ranks must call it
// collectively, each with its own GlobalModelState built from the shared
// config; identical install histories make every rank publish the same
// model. The local stream keeps only its own points, as a shard does, so
// repeated syncs never double-count mass.
func (g *GlobalModelState) Sync(comm *mpi.Comm, local *Stream) (*Model, error) {
	state, err := local.EncodeShardState()
	if err != nil {
		return nil, err
	}
	merged, err := comm.Allreduce(state, func(acc, in []byte) ([]byte, error) {
		return MergeShardStates(acc, in)
	})
	if err != nil {
		return nil, err
	}
	return g.Install(merged)
}

// Model returns the global model published by the latest Install (nil
// before the first).
func (g *GlobalModelState) Model() *Model { return g.s.Snapshot() }

// Seen returns the total point count behind the latest installed state.
func (g *GlobalModelState) Seen() int { return g.s.Seen() }
