package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// --- percentiles -----------------------------------------------------------

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailP99 is the run's p99 taken robustly: the samples, in the order they
// were taken, are cut into `windows` equal runs, and the median of the
// runs' nearest-rank p99s is returned. A single stall (another process
// taking the CPU or the disk for a moment) then moves one window's p99,
// not the reported figure.
func tailP99(xs []float64, windows int) float64 {
	return percentile(windowP99s(xs, windows), 50)
}

// windowP99s returns the p99 of each of `windows` equal runs of xs, or
// the p99 of all of xs when there are too few samples to cut.
func windowP99s(xs []float64, windows int) []float64 {
	if len(xs) < windows*2 {
		return []float64{percentile(xs, 99)}
	}
	var p99s []float64
	for w := 0; w < windows; w++ {
		p99s = append(p99s, percentile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], 99))
	}
	return p99s
}

// p99Windows is how many windows tailP99 cuts a run's samples into.
const p99Windows = 5

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- spans -----------------------------------------------------------------

// span is one timed call made by the benchmark into a layer of the
// program: the root span of an operation (a batch, query, merge or fit)
// has Parent 0, and every span of one operation shares its Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory; the driver writes them
// out when the run ends. A nil *tracer records nothing, which is how the
// untraced runs pay no tracing cost beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	spans []span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so a parent can be named before it ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span. With id 0 a fresh ID is assigned; op 0
// makes the span its own operation.
func (t *tracer) add(id, parent, op uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of its spans and
// their count. A span's self time is its duration minus the part of its
// interval that its children cover; overlapping children are counted once
// and children are clipped to the parent's interval.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// coverage is the length of the union of ivs clipped to [lo, hi].
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	return total + curB - curA
}

// --- Prometheus scrapes ----------------------------------------------------

// scrape is one parsed /metrics exposition: series identity → value.
type scrape map[string]float64

// delta returns after−before for one series identity (0 when absent).
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// histDelta is the change of one Prometheus histogram series between two
// scrapes: its _sum and _count, and the per-bucket (non-cumulative) counts
// keyed by upper bound.
type histDelta struct {
	Sum, Count float64
	Bounds     []float64 // ascending; the last is +Inf
	Counts     []float64 // observations in (Bounds[i-1], Bounds[i]]
}

// histogramDelta extracts a histogram's change from two scrapes. name is
// the family name and labels the rendered label pairs without braces
// (e.g. `endpoint="ingest"`), or "".
func histogramDelta(before, after scrape, name, labels string) histDelta {
	wrap := func(suffix string) string {
		if labels == "" {
			return name + suffix
		}
		return name + suffix + "{" + labels + "}"
	}
	h := histDelta{Sum: delta(before, after, wrap("_sum")), Count: delta(before, after, wrap("_count"))}
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k := range after {
		if !strings.HasPrefix(k, prefix+`le="`) {
			continue
		}
		v := strings.TrimSuffix(strings.TrimPrefix(k, prefix+`le="`), `"}`)
		le := math.Inf(1)
		if v != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(v, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, after[k] - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	prev := 0.0
	for _, b := range bs {
		h.Bounds = append(h.Bounds, b.le)
		h.Counts = append(h.Counts, b.cum-prev)
		prev = b.cum
	}
	return h
}

// Mean is sum÷count, 0 for an empty delta.
func (h histDelta) Mean() float64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// (0 < q ≤ 1) of the delta's observations — the resolution a fixed-bucket
// histogram supports. Observations above the last finite bound report
// that bound. 0 for an empty delta.
func (h histDelta) Quantile(q float64) float64 {
	total := 0.0
	for _, c := range h.Counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	need := math.Ceil(q * total)
	cum := 0.0
	for i, c := range h.Counts {
		cum += c
		if cum >= need {
			if math.IsInf(h.Bounds[i], 1) && i > 0 {
				return h.Bounds[i-1]
			}
			return h.Bounds[i]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// --- open-loop schedules ---------------------------------------------------

// schedule is an open-loop generator's timetable: operation i is due at
// Start + i·Period, whether or not earlier operations have finished.
type schedule struct {
	Start  time.Time
	Period time.Duration
}

func (s schedule) due(i int) time.Time { return s.Start.Add(time.Duration(i) * s.Period) }

// lateness is how long after its due time operation i was sent.
func (s schedule) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// openLoopCheck decides whether an open-loop generator kept to its
// schedule. It fell behind when its median lateness reached half a period
// (sends were systematically late), or when its lateness trended upward:
// the median of the last quarter of sends exceeds the first quarter's by
// more than half a period. Isolated late sends (the generator descheduled
// for a moment) do not invalidate a run; their size is reported as
// client.gen_late_ms.p99. An empty reason means the run is valid.
func openLoopCheck(late []time.Duration, period time.Duration) string {
	if len(late) == 0 {
		return "no operations sent"
	}
	xs := make([]float64, len(late))
	for i, d := range late {
		xs[i] = float64(d)
	}
	if p50 := percentile(xs, 50); p50 >= float64(period)/2 {
		return fmt.Sprintf("generator median lateness %.2fms ≥ half the period %.2fms", p50/1e6, ms(period))
	}
	if q := len(xs) / 4; q >= 4 {
		first, last := percentile(xs[:q], 50), percentile(xs[len(xs)-q:], 50)
		if last-first > float64(period)/2 {
			return fmt.Sprintf("generator lateness grew from %.2fms to %.2fms", first/1e6, last/1e6)
		}
	}
	return ""
}

// backlogCheck decides whether a sampled backlog (queue length over the
// run) grew: the mean of the last third exceeds the first third's by more
// than slack. An empty reason means it did not.
func backlogCheck(samples []float64, slack float64) string {
	t := len(samples) / 3
	if t < 2 {
		return ""
	}
	first, last := mean(samples[:t]), mean(samples[len(samples)-t:])
	if last-first > slack {
		return fmt.Sprintf("backlog grew from %.1f to %.1f", first, last)
	}
	return ""
}
