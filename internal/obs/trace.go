package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer keeps a ring buffer of recently finished traces and optionally
// appends each one as a JSON line to a log writer. A trace is a named
// unit of work (one ingest batch, one MPI collective) carrying an ID and
// an ordered list of spans; spans are stages inside the trace (WAL
// append, fsync, apply, refit). Traces are cheap — a few small
// allocations per trace, atomics elsewhere — so stamping every ingest
// batch is affordable at production rates.
type Tracer struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	full bool

	logMu sync.Mutex
	logW  func([]byte) // sink for finished traces (nil = off)

	// Slow-span logging (SetSlowSpanLog): spans or traces at or above
	// slowNs log their trace ID through slowLog, linking a metrics
	// anomaly (a latency histogram spike) to the exact trace behind it.
	slowNs  atomic.Int64
	slowLog atomic.Pointer[Logger]

	seq atomic.Uint64
	run string // run-ID prefix for trace IDs
}

// NewTracer builds a tracer retaining the last capacity finished traces
// (minimum 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{ring: make([]*Trace, capacity), run: NewRunID()}
}

// SetRunID replaces the run-ID prefix stamped on trace IDs (by default a
// fresh NewRunID), aligning traces with the owner's log/metric identity.
// Call before the first Start; the prefix is read without locking.
func (t *Tracer) SetRunID(id string) {
	if id != "" {
		t.run = id
	}
}

// SetLogSink directs every finished trace, marshaled as one JSON line
// (newline included), to fn. Pass nil to disable. fn is called outside
// the tracer's ring lock but serialized, so a plain file writer is safe.
func (t *Tracer) SetLogSink(fn func(line []byte)) {
	t.logMu.Lock()
	t.logW = fn
	t.logMu.Unlock()
}

// SetSlowSpanLog arms slow-span logging: any span (or whole trace) whose
// duration reaches threshold logs its trace ID, span name, and duration
// through logger at warn level when the trace finishes. threshold <= 0 or
// a nil logger disables. Safe to call concurrently with tracing.
func (t *Tracer) SetSlowSpanLog(threshold time.Duration, logger *Logger) {
	if threshold <= 0 || logger == nil {
		t.slowNs.Store(0)
		t.slowLog.Store(nil)
		return
	}
	t.slowLog.Store(logger)
	t.slowNs.Store(int64(threshold))
}

// Start begins a root trace with a fresh trace ID. The caller must Finish
// it; until then it is not visible in the ring.
func (t *Tracer) Start(name string, attrs ...Attr) *Trace {
	return &Trace{
		tr:      t,
		ID:      fmt.Sprintf("%s-%06d", t.run, t.seq.Add(1)),
		TraceID: NewTraceID(),
		SpanID:  NewSpanID(),
		Name:    name,
		Begin:   time.Now(),
		attrs:   attrs,
	}
}

// StartLinked begins a trace joined to a remote caller's context
// (typically extracted from a traceparent header): the new trace shares
// the caller's trace ID and records the caller's span ID as its parent,
// so the two processes' ring buffers hold two halves of one trace. An
// invalid parent degrades to Start — a fresh root trace.
func (t *Tracer) StartLinked(name string, parent SpanContext, attrs ...Attr) *Trace {
	tr := t.Start(name, attrs...)
	if parent.Valid() {
		tr.TraceID = parent.TraceID
		tr.ParentID = parent.SpanID
	}
	return tr
}

// Trace is one in-flight or finished unit of work. Its methods are safe
// for concurrent use: a trace may be handed between goroutines (e.g. from
// an HTTP handler to the writer goroutine).
type Trace struct {
	tr *Tracer
	// ID is the human-scannable run-local identity ("<run>-000042");
	// TraceID/SpanID/ParentID are the distributed identity (see
	// tracectx.go): TraceID names the cross-process trace, SpanID this
	// process's root span within it, ParentID the remote caller's span
	// (empty at a trace root).
	ID       string
	TraceID  string
	SpanID   string
	ParentID string
	Name     string
	Begin    time.Time

	mu      sync.Mutex
	spans   []SpanData
	attrs   []Attr
	dur     time.Duration
	done    bool
	pending int // extra Finish calls required before publication (see RequireFinishes)
}

// Context returns the span context downstream requests should carry: this
// trace's ID with its root span as the parent-to-be.
func (t *Trace) Context() SpanContext {
	return SpanContext{TraceID: t.TraceID, SpanID: t.SpanID}
}

// SpanData is one completed stage inside a trace. ID is the span's own
// identity, Parent the span it nests under (the trace's root span).
type SpanData struct {
	Name   string
	ID     string
	Parent string
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr
}

// Span is an open stage; End closes it.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	attrs []Attr
}

// Span opens a stage. Stages are recorded in completion order.
func (t *Trace) Span(name string, attrs ...Attr) *Span {
	return &Span{t: t, name: name, start: time.Now(), attrs: attrs}
}

// End closes the span, appending any extra attributes.
func (s *Span) End(attrs ...Attr) {
	d := time.Since(s.start)
	s.t.AddSpan(s.name, s.start, d, append(s.attrs, attrs...)...)
}

// AddSpan records an already-timed stage as a child of the trace's root
// span, minting the span its own ID.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, attrs ...Attr) {
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, SpanData{
			Name: name, ID: NewSpanID(), Parent: t.SpanID,
			Start: start, Dur: d, Attrs: attrs,
		})
	}
	t.mu.Unlock()
}

// AddAttrs appends trace-level attributes (e.g. the WAL sequence learned
// mid-flight).
func (t *Trace) AddAttrs(attrs ...Attr) {
	t.mu.Lock()
	if !t.done {
		t.attrs = append(t.attrs, attrs...)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded stages so far.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData(nil), t.spans...)
}

// RequireFinishes arms the trace to publish only after n Finish calls.
// Use it when a trace's stages end on different goroutines — e.g. a
// pipelined ingest whose durability ack (handler) and apply (writer)
// complete concurrently and both record final spans. Call before handing
// the trace to the other goroutine. n < 1 is treated as 1.
func (t *Trace) RequireFinishes(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	if !t.done {
		t.pending = n - 1
	}
	t.mu.Unlock()
}

// Finish seals the trace and publishes it into the tracer's ring (and the
// trace log, when one is configured). Finish is idempotent; spans added
// after it are dropped. When RequireFinishes armed the trace, only the
// final Finish publishes — earlier ones just decrement the pending count.
func (t *Trace) Finish() {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	if t.pending > 0 {
		t.pending--
		t.mu.Unlock()
		return
	}
	t.done = true
	t.dur = time.Since(t.Begin)
	t.mu.Unlock()

	tr := t.tr
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.full = true
	}
	tr.mu.Unlock()

	tr.logMu.Lock()
	sink := tr.logW
	if sink != nil {
		line, err := json.Marshal(t.export())
		if err == nil {
			sink(append(line, '\n'))
		}
	}
	tr.logMu.Unlock()

	if th := time.Duration(tr.slowNs.Load()); th > 0 {
		if lg := tr.slowLog.Load(); lg != nil {
			t.logSlow(th, lg)
		}
	}
}

// logSlow emits one warn line per span at or above the threshold (and one
// for the whole trace), each carrying the trace ID — the pivot from a
// latency alert to the exact cross-process trace behind it. Called after
// Finish sealed the trace; the lock only guards against a straggling
// AddSpan appending mid-read.
func (t *Trace) logSlow(th time.Duration, lg *Logger) {
	t.mu.Lock()
	spans := append([]SpanData(nil), t.spans...)
	dur := t.dur
	t.mu.Unlock()
	for _, sp := range spans {
		if sp.Dur >= th {
			lg.Warn("slow span",
				KV("trace_id", t.TraceID), KV("span_id", sp.ID), KV("trace", t.Name),
				KV("span", sp.Name), KV("dur_ms", float64(sp.Dur.Microseconds())/1000))
		}
	}
	if dur >= th {
		lg.Warn("slow trace",
			KV("trace_id", t.TraceID), KV("span_id", t.SpanID), KV("trace", t.Name),
			KV("spans", len(spans)), KV("dur_ms", float64(dur.Microseconds())/1000))
	}
}

// TraceJSON is the wire shape of one finished trace, served by the /trace
// handler and written to the trace log.
type TraceJSON struct {
	ID       string         `json:"id"`
	TraceID  string         `json:"trace_id"`
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	Start    string         `json:"start"` // RFC3339Nano
	DurUs    float64        `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Spans    []SpanJSON     `json:"spans,omitempty"`
}

// SpanJSON is one stage in TraceJSON. OffsetUs is the span start relative
// to the trace start.
type SpanJSON struct {
	Name     string         `json:"name"`
	ID       string         `json:"span_id"`
	Parent   string         `json:"parent_id,omitempty"`
	OffsetUs float64        `json:"offset_us"`
	DurUs    float64        `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

func (t *Trace) export() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{
		ID:       t.ID,
		TraceID:  t.TraceID,
		SpanID:   t.SpanID,
		ParentID: t.ParentID,
		Name:     t.Name,
		Start:    t.Begin.Format(time.RFC3339Nano),
		DurUs:    float64(t.dur.Microseconds()),
		Attrs:    attrMap(t.attrs),
	}
	for _, sp := range t.spans {
		out.Spans = append(out.Spans, SpanJSON{
			Name:     sp.Name,
			ID:       sp.ID,
			Parent:   sp.Parent,
			OffsetUs: float64(sp.Start.Sub(t.Begin).Microseconds()),
			DurUs:    float64(sp.Dur.Microseconds()),
			Attrs:    attrMap(sp.Attrs),
		})
	}
	return out
}

// Snapshot returns the finished traces currently retained, oldest first.
func (t *Tracer) Snapshot() []TraceJSON {
	t.mu.Lock()
	var traces []*Trace
	if t.full {
		traces = append(traces, t.ring[t.next:]...)
		traces = append(traces, t.ring[:t.next]...)
	} else {
		traces = append(traces, t.ring[:t.next]...)
	}
	t.mu.Unlock()
	out := make([]TraceJSON, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr.export())
	}
	return out
}

// Handler serves {"traces":[...]} newest first. It answers any method;
// callers mount it as "GET /trace" so the mux refuses the rest.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := t.Snapshot()
		// Newest first: the interesting trace is usually the latest.
		for i, j := 0, len(snap)-1; i < j; i, j = i+1, j-1 {
			snap[i], snap[j] = snap[j], snap[i]
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"traces": snap})
	})
}
