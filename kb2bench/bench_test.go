package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"keybin2/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
	// 1..100: p99 is the 99th value, not an interpolation.
	var h []float64
	for i := 100; i >= 1; i-- {
		h = append(h, float64(i))
	}
	if got := percentile(h, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

func TestTailP99IgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < p99Windows; w++ {
		for i := 0; i < 100; i++ {
			xs = append(xs, 1)
		}
	}
	xs[5] = 500 // one stall in the first window
	if got := tailP99(xs, p99Windows); got != 1 {
		t.Errorf("tailP99 = %v, want 1", got)
	}
	if got := tailP99(xs[:6], p99Windows); got != 500 {
		t.Errorf("few samples: tailP99 = %v, want plain p99 500", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.id()
	// Children [10,40] and [30,60] overlap: together they cover [10,60].
	// A third child [90,120] sticks out of the parent [0,100]: only
	// [90,100] counts. Self time = 100 - 50 - 10 = 40.
	tr.add(0, root, root, "child", at(10), at(40))
	tr.add(0, root, root, "child", at(30), at(60))
	tr.add(0, root, root, "child", at(90), at(120))
	tr.add(root, 0, root, "root", at(0), at(100))
	self, count := selfTimes(tr.snapshot())
	if got := self["root"]; got != 40*time.Millisecond {
		t.Errorf("root self time %v, want 40ms", got)
	}
	if got := self["child"]; got != 90*time.Millisecond || count["child"] != 3 {
		t.Errorf("child self time %v over %d spans, want 90ms over 3", got, count["child"])
	}
	var nilTracer *tracer
	if id := nilTracer.add(0, 0, 0, "x", at(0), at(1)); id != 0 || nilTracer.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestHistogramDeltaFromExposition(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.HistogramVec("lat_seconds", "latency", []float64{0.001, 0.01, 0.1}, "endpoint").With("ingest")
	other := reg.HistogramVec("lat_seconds", "latency", []float64{0.001, 0.01, 0.1}, "endpoint").With("label")
	parse := func() scrape {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		m, err := obs.ParseExposition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return scrape(m)
	}
	h.Observe(0.0005) // before the window: must not count
	before := parse()
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	other.Observe(0.05)
	after := parse()
	d := histogramDelta(before, after, "lat_seconds", `endpoint="ingest"`)
	if d.Count != 5 || math.Abs(d.Sum-0.5605) > 1e-12 {
		t.Fatalf("count %v sum %v, want 5 and 0.5605", d.Count, d.Sum)
	}
	if want := 0.5605 / 5; math.Abs(d.Mean()-want) > 1e-12 {
		t.Errorf("mean %v, want %v", d.Mean(), want)
	}
	wantCounts := []float64{1, 2, 1, 1}
	for i, c := range wantCounts {
		if d.Counts[i] != c {
			t.Fatalf("bucket counts %v, want %v", d.Counts, wantCounts)
		}
	}
	if q := d.Quantile(0.5); q != 0.01 {
		t.Errorf("p50 bucket bound %v, want 0.01", q)
	}
	if q := d.Quantile(0.99); q != 0.1 {
		t.Errorf("p99 above the last finite bound reports it: %v, want 0.1", q)
	}
	if got := histogramDelta(before, after, "absent_seconds", "").Mean(); got != 0 {
		t.Errorf("absent histogram mean %v, want 0", got)
	}
	if got := delta(before, after, `lat_seconds_count{endpoint="label"}`); got != 1 {
		t.Errorf("label count delta %v, want 1", got)
	}
}

func TestOpenLoopLateness(t *testing.T) {
	sch := schedule{Start: time.Unix(100, 0), Period: 10 * time.Millisecond}
	if got := sch.lateness(3, sch.Start.Add(33*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness %v, want 3ms", got)
	}
	if got := sch.lateness(3, sch.Start.Add(29*time.Millisecond)); got != 0 {
		t.Errorf("early send lateness %v, want 0", got)
	}
	steady := make([]time.Duration, 100)
	for i := range steady {
		steady[i] = time.Millisecond
	}
	steady[50] = 80 * time.Millisecond // one descheduled send is not falling behind
	if why := openLoopCheck(steady, sch.Period); why != "" {
		t.Errorf("steady generator flagged: %s", why)
	}
	behind := make([]time.Duration, 100)
	for i := range behind {
		behind[i] = 6 * time.Millisecond
	}
	if openLoopCheck(behind, sch.Period) == "" {
		t.Error("systematically late generator not flagged")
	}
	growing := make([]time.Duration, 100)
	for i := range growing {
		growing[i] = time.Duration(i) * 100 * time.Microsecond
	}
	if openLoopCheck(growing, sch.Period) == "" {
		t.Error("growing lateness not flagged")
	}
	if openLoopCheck(nil, sch.Period) == "" {
		t.Error("no sends not flagged")
	}
	if why := backlogCheck([]float64{0, 1, 0, 1, 0, 1, 0, 1, 0}, 2); why != "" {
		t.Errorf("flat backlog flagged: %s", why)
	}
	if backlogCheck([]float64{0, 0, 0, 5, 10, 20, 30, 40, 50}, 2) == "" {
		t.Error("growing backlog not flagged")
	}
}

func TestResolveByMerges(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	recs := []*batchRec{
		{rows: 10, acked: at(5)},
		{rows: 10, acked: at(12)},
		{rows: 10, acked: at(30)},
	}
	merges := []mergeRec{
		{start: at(6), done: at(9), res: mergeResult{MergedSeen: 10}},
		// Started after the second ack but merged too few points to
		// include it: the batch waits for the next epoch.
		{start: at(13), done: at(20), res: mergeResult{MergedSeen: 10}},
		{start: at(21), done: at(25), res: mergeResult{MergedSeen: 20}},
	}
	resolveByMerges(recs, merges)
	if !recs[0].visible.Equal(at(9)) || !recs[1].visible.Equal(at(25)) || !recs[2].visible.IsZero() {
		t.Errorf("visible at %v %v %v", recs[0].visible, recs[1].visible, recs[2].visible)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the driver prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: %+v, catalog %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
}

// TestSmokeEveryWorkload builds the daemons and runs each workload for a
// second, untraced and traced, checking the result line's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"keybin2d", "keybin2router"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	for name := range workloads {
		d := time.Second
		if name == "insitu-mixed" {
			// The simulation must get through its trajectory once (about four
			// seconds of frames) before every held-out phase can be labeled.
			d = 10 * time.Second
		}
		for _, traced := range []bool{false, true} {
			stdout := captureStdout(t, func() error {
				return mainErr(name, 7, d, traced, bin, t.TempDir())
			})
			lines := strings.Split(strings.TrimSpace(stdout), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line %q: %v", name, traced, lines[len(lines)-1], err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d metrics=%d",
					name, traced, res.Correct, res.Attempted, res.Failed, len(res.Metrics))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, d.name, m)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, d.name)
				}
			}
		}
	}
}

func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	runErr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	return string(out)
}
