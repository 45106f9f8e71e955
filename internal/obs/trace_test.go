package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTraceSpanOrder: spans land in the exported trace in completion
// order, with offsets relative to the trace start — the property the
// server-side batch-chain test builds on.
func TestTraceSpanOrder(t *testing.T) {
	tr := NewTracer(16)
	trace := tr.Start("ingest_batch", KV("points", 128))
	base := trace.Begin

	trace.AddSpan("wal_append", base.Add(1*time.Millisecond), 500*time.Microsecond, KV("seq", 7))
	trace.AddSpan("fsync", base.Add(2*time.Millisecond), 300*time.Microsecond)
	sp := trace.Span("apply")
	sp.End(KV("labeled", 128))
	trace.AddAttrs(KV("seq", 7))
	trace.Finish()

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(snap))
	}
	got := snap[0]
	if got.Name != "ingest_batch" {
		t.Errorf("name = %q", got.Name)
	}
	if !strings.HasPrefix(got.ID, tr.run+"-") {
		t.Errorf("ID %q missing run prefix %q", got.ID, tr.run)
	}
	var names []string
	for _, s := range got.Spans {
		names = append(names, s.Name)
	}
	want := []string{"wal_append", "fsync", "apply"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("span order = %v, want %v", names, want)
	}
	if got.Spans[0].OffsetUs < 900 || got.Spans[0].OffsetUs > 1100 {
		t.Errorf("wal_append offset_us = %v, want ~1000", got.Spans[0].OffsetUs)
	}
	if got.Attrs["points"] != float64(128) && got.Attrs["points"] != 128 {
		// Snapshot() returns live values (int); via JSON they become float64.
		t.Errorf("points attr = %v", got.Attrs["points"])
	}

	// Spans added after Finish are dropped.
	liveLen := len(got.Spans)
	snapTrace := tr.Snapshot()[0]
	trace.AddSpan("late", time.Now(), time.Millisecond)
	if got := len(tr.Snapshot()[0].Spans); got != liveLen {
		t.Errorf("post-Finish span recorded: %d spans, want %d", got, liveLen)
	}
	_ = snapTrace
}

// TestTracerRingEviction: the ring keeps only the most recent `capacity`
// traces, oldest first in Snapshot.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(16) // min capacity
	for i := 0; i < 20; i++ {
		trace := tr.Start("t", KV("i", i))
		trace.Finish()
	}
	snap := tr.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("ring holds %d, want 16", len(snap))
	}
	if first := snap[0].Attrs["i"]; first != 4 {
		t.Errorf("oldest retained i = %v, want 4", first)
	}
	if last := snap[15].Attrs["i"]; last != 19 {
		t.Errorf("newest retained i = %v, want 19", last)
	}
}

// TestTracerLogSinkAndHandler: finished traces stream to the sink as JSON
// lines, and GET /trace serves them newest first. The method gate is the
// mux's; internal/daemon tests it.
func TestTracerLogSinkAndHandler(t *testing.T) {
	tr := NewTracer(16)
	var buf bytes.Buffer
	tr.SetLogSink(func(line []byte) { buf.Write(line) })

	for i := 0; i < 3; i++ {
		trace := tr.Start("work", KV("i", i))
		sp := trace.Span("stage")
		sp.End()
		trace.Finish()
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink got %d lines, want 3", len(lines))
	}
	var first TraceJSON
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if first.Name != "work" || len(first.Spans) != 1 || first.Spans[0].Name != "stage" {
		t.Errorf("unexpected sink trace: %+v", first)
	}

	h := tr.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /trace = %d", rec.Code)
	}
	var body struct {
		Traces []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 3 {
		t.Fatalf("handler returned %d traces, want 3", len(body.Traces))
	}
	if body.Traces[0].Attrs["i"] != float64(2) {
		t.Errorf("newest-first violated: first trace i = %v, want 2", body.Traces[0].Attrs["i"])
	}
}

// TestTraceFinishIdempotent: double Finish publishes exactly once.
func TestTraceFinishIdempotent(t *testing.T) {
	tr := NewTracer(16)
	trace := tr.Start("once")
	trace.Finish()
	trace.Finish()
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("ring holds %d traces after double Finish, want 1", n)
	}
}
