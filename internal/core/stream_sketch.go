package core

import (
	"fmt"
	"math"
	"slices"

	"keybin2/internal/histogram"
	"keybin2/internal/keys"
)

// trialSketch is one trial's coarse key-mass accumulator — the structure
// the ingest hot loop hits once per point per trial. The stream only ever
// stores keys at sketch granularity (components < 2^sketchBitsPerDim, see
// Stream.sketchShift), so for widths up to 12 dimensions a whole key packs
// into one uint64 and the accumulator is a map[uint64]float64: adding mass
// to an existing cell is a single mapassign_fast64 with no allocation,
// versus the string-keyed keys.Counter whose every Add materializes a
// fresh packed string. Wider keys fall back to a keys.Counter.
type trialSketch struct {
	width  int
	packed map[uint64]float64 // fast path; nil for wide keys
	ctr    *keys.Counter      // fallback; nil while packed is live
}

// sketchBitsPerDim is the packed encoding's per-dimension width. Sketch
// components are always < 32: the stream shifts full-resolution bins down
// to at most maxSketchDepth (5) bits before they reach the sketch.
const sketchBitsPerDim = 5

const sketchComponentMax = 1 << sketchBitsPerDim

func newTrialSketch(width int) *trialSketch {
	s := &trialSketch{width: width}
	if width*sketchBitsPerDim <= 64 {
		s.packed = make(map[uint64]float64)
	} else {
		s.ctr = keys.NewCounter(width)
	}
	return s
}

// packKey packs coarse components (each < sketchComponentMax) into one
// uint64, most-significant dimension first, so packed order is the
// lexicographic order of the components.
func packKey(k keys.Key) uint64 {
	var pk uint64
	for _, b := range k {
		pk = pk<<sketchBitsPerDim | uint64(b)
	}
	return pk
}

func (s *trialSketch) unpackInto(k keys.Key, pk uint64) {
	for j := s.width - 1; j >= 0; j-- {
		k[j] = uint32(pk & (sketchComponentMax - 1))
		pk >>= sketchBitsPerDim
	}
}

// addPacked is the hot-loop entry: one map assignment, no allocation for
// an existing cell. Only valid in packed mode.
func (s *trialSketch) addPacked(pk uint64, n float64) { s.packed[pk] += n }

// add accepts a coarse key whose components are all < sketchComponentMax:
// the stream's sketch pass and readTrialSketch guarantee it.
func (s *trialSketch) add(k keys.Key, n float64) {
	if s.packed != nil {
		s.packed[packKey(k)] += n
		return
	}
	s.ctr.Add(k, n)
}

// merge folds o's masses into s (same width).
func (s *trialSketch) merge(o *trialSketch) {
	if s.packed != nil {
		for pk, n := range o.packed {
			s.packed[pk] += n
		}
		return
	}
	o.each(s.ctr.Add)
}

func (s *trialSketch) len() int {
	if s.packed != nil {
		return len(s.packed)
	}
	return s.ctr.Len()
}

// each visits every (key, mass) pair in unspecified order. The key slice
// is reused between calls — callers must not retain it.
func (s *trialSketch) each(fn func(k keys.Key, n float64)) {
	if s.packed != nil {
		k := make(keys.Key, s.width)
		for pk, n := range s.packed {
			s.unpackInto(k, pk)
			fn(k, n)
		}
		return
	}
	s.ctr.Each(fn)
}

// decay mirrors keys.Counter.Decay: scale every mass by factor, dropping
// cells that become negligible.
func (s *trialSketch) decay(factor float64) {
	if s.packed == nil {
		s.ctr.Decay(factor)
		return
	}
	if factor >= 1 {
		return
	}
	if factor < 0 {
		factor = 0
	}
	const negligible = 1e-6
	for pk, n := range s.packed {
		nn := n * factor
		if nn < negligible {
			delete(s.packed, pk)
		} else {
			s.packed[pk] = nn
		}
	}
}

// Sketch section wire format, shared by the stream checkpoint (KB2S) and
// the shard state (KB2H), little endian:
//
//	nkeys u32, per key: width u32 | key u32×width | mass f64
//
// Keys are written in lexicographic component order, so equal sketches
// encode to identical bytes. Readers accept any order: checkpoints written
// before the order was fixed carry map-iteration order.

// appendTo writes the sketch section in sorted key order.
func (s *trialSketch) appendTo(w *wireWriter) {
	w.u32(uint32(s.len()))
	entry := func(k keys.Key, n float64) {
		w.u32(uint32(len(k)))
		for _, b := range k {
			w.u32(b)
		}
		w.f64(n)
	}
	if s.packed != nil {
		pks := make([]uint64, 0, len(s.packed))
		for pk := range s.packed {
			pks = append(pks, pk)
		}
		slices.Sort(pks)
		k := make(keys.Key, s.width)
		for _, pk := range pks {
			s.unpackInto(k, pk)
			entry(k, s.packed[pk])
		}
		return
	}
	type cell struct {
		k keys.Key
		n float64
	}
	cells := make([]cell, 0, s.ctr.Len())
	s.ctr.Each(func(k keys.Key, n float64) { cells = append(cells, cell{slices.Clone(k), n}) })
	slices.SortFunc(cells, func(a, b cell) int { return slices.Compare(a.k, b.k) })
	for _, c := range cells {
		entry(c.k, c.n)
	}
}

// readTrialSketch decodes a sketch section for a trial binned by set. A
// key must have one component per dimension, each inside the coarse
// alphabet the set's resolution implies (min(bins, 2^maxSketchDepth), the
// rule NewStream uses); a mass must be finite and non-negative. Anything
// else is an error — Refit indexes its segment table by these components.
func readTrialSketch(r *wireReader, set *histogram.Set) (*trialSketch, error) {
	width := len(set.Dims)
	nkeys := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if nkeys > (len(r.buf)-r.off)/(12+4*width) {
		return nil, fmt.Errorf("core: sketch key count %d exceeds the payload", nkeys)
	}
	sk := newTrialSketch(width)
	k := make(keys.Key, width)
	for i := 0; i < nkeys; i++ {
		if w := int(r.u32()); w != width {
			return nil, fmt.Errorf("core: sketch key width %d for %d dims", w, width)
		}
		for j, h := range set.Dims {
			k[j] = r.u32()
			if alphabet := min(h.Bins(), sketchComponentMax); int(k[j]) >= alphabet {
				return nil, fmt.Errorf("core: sketch key component %d outside dimension %d's %d coarse bins", k[j], j, alphabet)
			}
		}
		mass := r.f64()
		if r.err != nil {
			return nil, r.err
		}
		if math.IsNaN(mass) || math.IsInf(mass, 0) || mass < 0 {
			return nil, fmt.Errorf("core: sketch key mass %v", mass)
		}
		sk.add(k, mass)
	}
	return sk, nil
}
