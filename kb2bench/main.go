// Command kb2bench is keybin2's end-to-end benchmark. It generates every
// input from a seed, drives the shipped keybin2d and keybin2router binaries
// (or core.FitDistributed in-process for the batch workload), checks the
// outputs, and prints one JSON result line:
//
//	{"correct":true,"attempted":N,"failed":N,"metrics":{"name":{"value":v,"unit":"u"}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated untraced and traced, and the metrics are the per-layer ones,
// the self time of each span the benchmark recorded, and the tracing
// overhead. Build and run it through run.sh from the repository root; see
// README.md for the workloads, the metric definitions and the pitfalls.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one workload execution: its parameters, the counters every
// operation reports into, and the collected metrics and check failures.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string
	work     string
	tr       *tracer // nil on untraced passes

	attempted, failed atomic.Int64

	mu     sync.Mutex // guards checks, which producers may append to
	e2e    map[string]metric
	layer  map[string]metric
	checks []string          // output-check failures; any one fails the run
	absent map[string]string // per-layer metric → why it reads 0 here
	flags  map[string][]string
	notes  map[string]any
}

func newRun(workload string, seed int64, seconds time.Duration, bin, work string, traced bool) *run {
	r := &run{workload: workload, seed: seed, seconds: seconds, bin: bin, work: work,
		e2e: map[string]metric{}, layer: map[string]metric{}, absent: map[string]string{},
		flags: map[string][]string{}, notes: map[string]any{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) setE2E(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

// setP99 records a p99 timing (ms) taken with tailP99. It is printed in
// the run record of every run and as a per-layer metric of traced runs,
// but it is not a gated end-to-end metric: on a shared two-core machine
// its run-to-run spread exceeds any bound the benchmark may set.
func (r *run) setP99(name string, xs []float64) {
	v := tailP99(xs, p99Windows)
	r.setLayer(name, v, "ms")
	r.notes[name] = v
	r.notes["windows."+name] = windowP99s(xs, p99Windows)
}
func (r *run) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{v, unit}
}
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, and a failed one when ok is false.
func (r *run) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

var workloads = map[string]func(*run) error{
	"ingest-durable": runIngestDurable,
	"insitu-mixed":   runInsituMixed,
	"sharded-merge":  runShardedMerge,
	"batch-fit":      runBatchFit,
}

func main() {
	workload := flag.String("workload", "", "ingest-durable | insitu-mixed | sharded-merge | batch-fit")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	bin := flag.String("bin", "", "directory holding the keybin2d and keybin2router binaries")
	work := flag.String("work", "", "scratch directory for logs, WALs and spans")
	flag.Parse()
	if err := mainErr(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "kb2bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds time.Duration, traced bool, bin, work string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", workload)
	}
	if bin == "" || work == "" {
		return fmt.Errorf("-bin and -work are required (run through run.sh)")
	}
	work = filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	// pass runs the workload once in its own directory; its WALs are
	// removed afterwards, its logs and spans stay.
	pass := func(name string, d time.Duration, traced bool) (*run, error) {
		r := newRun(workload, seed, d, bin, filepath.Join(work, name), traced)
		if err := os.MkdirAll(r.work, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(filepath.Join(r.work, "data"))
		return r, fn(r)
	}

	var out *run
	if !traced {
		var err error
		if out, err = pass("run", seconds, false); err != nil {
			return err
		}
	} else {
		// The per-layer numbers come from a traced pass; an untraced pass of
		// the same length first gives the baseline the overhead is taken
		// against. Each pass gets half of the measurement time.
		base, err := pass("untraced", seconds/2, false)
		if err != nil {
			return err
		}
		if out, err = pass("traced", seconds/2, true); err != nil {
			return err
		}
		out.checks = append(base.checks, out.checks...)
		out.attempted.Add(base.attempted.Load())
		out.failed.Add(base.failed.Load())
		traceMetrics(out, base)
		out.fillAbsent()
		if err := writeSpans(out, filepath.Join(out.work, "spans.jsonl")); err != nil {
			return err
		}
	}
	metrics := out.e2e
	if traced {
		metrics = out.layer
	}
	record := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds.Seconds(), "trace": traced,
		"machine": fingerprint(), "flags": out.flags, "notes": out.notes,
		"absent": out.absent, "checks_failed": out.checks,
	}
	rec, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Println("run-record:", string(rec))
	res, err := json.Marshal(map[string]any{
		"correct": len(out.checks) == 0, "attempted": out.attempted.Load(),
		"failed": out.failed.Load(), "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	if len(out.checks) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(out.checks, "; "))
	}
	return nil
}

// traceMetrics adds the span self times and the tracing overhead (traced
// minus untraced end-to-end figures) to the traced run's per-layer metrics.
func traceMetrics(traced, base *run) {
	self, count := selfTimes(traced.tr.snapshot())
	for _, name := range spanNames {
		v := 0.0
		if n := count[name]; n > 0 {
			v = ms(self[name]) / float64(n)
		} else {
			traced.absent["trace.self_ms."+name] = "no " + name + " spans on this workload"
		}
		traced.setLayer("trace.self_ms."+name, v, "ms")
	}
	traced.setLayer("trace.spans", float64(len(traced.tr.snapshot())), "count")
	for _, name := range traceOverhead {
		t, b := traced.e2e[name], base.e2e[name]
		traced.setLayer("trace.overhead."+name, t.Value-b.Value, t.Unit)
	}
}

// spanNames are the span kinds the benchmark records; each gets a
// trace.self_ms.<name> metric (mean self time per span).
var spanNames = []string{"batch", "ingest", "label", "merge", "fit", "mpi", "decode", "wal_append", "apply", "refit"}

func writeSpans(r *run, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// fingerprint describes the machine and the source tree a run measured.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	caches := map[string]string{}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		if t := strings.TrimSpace(string(typ)); t != "Instruction" {
			caches["L"+strings.TrimSpace(string(lvl))] = strings.TrimSpace(string(size))
		}
	}
	fp["caches"] = caches
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(out))
	} else {
		fp["commit"] = "not a git checkout"
	}
	fp["source_sha256"] = sourceDigest(".")
	return fp
}

// sourceDigest hashes the Go sources and go.mod files under root (sorted
// by path), identifying the code measured when no commit is at hand.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
