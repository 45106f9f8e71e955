package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"keybin2/internal/obs"
)

// proc is one spawned daemon (keybin2d or keybin2router) listening on a
// kernel-chosen loopback port, learned from its structured listening line.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done
}

// spawn starts bin with args plus -addr 127.0.0.1:0, logs its stderr to
// logPath, and returns once the process has printed its listening address.
func spawn(bin, logPath string, args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{name: filepath.Base(bin), args: args, cmd: cmd, done: make(chan struct{})}
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sent && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addrC <- a
						sent = true
						break
					}
				}
			}
		}
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	select {
	case a := <-addrC:
		p.url = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", p.name, p.err, logPath)
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not report a listening address; see %s", p.name, logPath)
	}
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it after the grace period.
func (p *proc) stop(grace time.Duration) error {
	if p == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: done is closed
	select {
	case <-p.done:
		// The daemons install their SIGTERM handler just after they start
		// serving, so a stop that lands in between ends the process by the
		// signal itself. That is still the stop that was asked for.
		var ee *exec.ExitError
		if errors.As(p.err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return p.err
	case <-time.After(grace):
		p.kill()
		return fmt.Errorf("%s did not drain within %v", p.name, grace)
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // the process may already be gone
	<-p.done
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func (p *proc) peakRSSMB() float64 { return vmHWMMB(p.cmd.Process.Pid) }

func vmHWMMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// quietGC switches the benchmark process's garbage collector off, with a
// 256 MiB heap limit as a guard, until the returned func restores it. On
// a two-core machine the client's own collector would otherwise take CPU
// from the daemons it measures. The daemons keep their defaults, and the
// in-process fits run with the collector restored.
func quietGC() (restore func()) {
	pct := debug.SetGCPercent(-1)
	lim := debug.SetMemoryLimit(256 << 20)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(lim)
	}
}

// fleet is the set of processes a streaming workload runs against.
type fleet struct {
	procs []*proc
}

func (f *fleet) stop() error {
	var errs []string
	// Routers first, so nothing proxies into a draining shard.
	for i := len(f.procs) - 1; i >= 0; i-- {
		if err := f.procs[i].stop(30 * time.Second); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("stop: %s", strings.Join(errs, "; "))
	}
	return nil
}

func (f *fleet) peakRSSMB() float64 {
	total := 0.0
	for _, p := range f.procs {
		total += p.peakRSSMB()
	}
	return total
}

// waitReady polls GET /readyz on every URL until each answers 200.
func waitReady(ctx context.Context, urls ...string) error {
	c := newConn()
	for _, u := range urls {
		for {
			st, _, err := c.do(ctx, http.MethodGet, u+"/readyz", nil, nil)
			if err == nil && st == http.StatusOK {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became ready: %v", u, err)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	c.close()
	return nil
}

// --- HTTP ------------------------------------------------------------------

// conn is one request-issuing client: a transport limited to a single
// connection per host, so a goroutine that owns a conn holds at most one
// open connection to each daemon it talks to.
type conn struct {
	hc *http.Client
	tr *http.Transport
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		WriteBufferSize:     128 << 10,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *conn) do(ctx context.Context, method, url string, body []byte, hdr map[string]string) (int, []byte, error) {
	code, b, _, err := c.doHdr(ctx, method, url, body, hdr)
	return code, b, err
}

// doHdr is do that also returns the response headers.
func (c *conn) doHdr(ctx context.Context, method, url string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// nodeStats is the subset of keybin2d /stats (and the router's compatible
// superset) the benchmark reads.
type nodeStats struct {
	Seen       int64  `json:"seen"`
	Accepted   int64  `json:"accepted"`
	Batches    int64  `json:"batches"`
	Duplicates int64  `json:"duplicate_batches"`
	Refits     int64  `json:"refits"`
	QueueLen   int    `json:"queue_len"`
	AppliedSeq uint64 `json:"applied_seq"`
	MergeEpoch int64  `json:"merge_epoch"`
	GlobalSeen int64  `json:"global_seen"`
}

func (c *conn) stats(ctx context.Context, base string) (nodeStats, error) {
	var st nodeStats
	code, b, err := c.do(ctx, http.MethodGet, base+"/stats", nil, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("%s/stats: %d %s", base, code, strings.TrimSpace(string(b)))
	}
	return st, json.Unmarshal(b, &st)
}

func (c *conn) metrics(ctx context.Context, base string) (scrape, error) {
	code, b, err := c.do(ctx, http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %d", base, code)
	}
	m, err := obs.ParseExposition(bytes.NewReader(b))
	return scrape(m), err
}

// ingestAck is the 202 body of POST /ingest.
type ingestAck struct {
	Queued    int    `json:"queued"`
	Seq       uint64 `json:"seq"`
	Duplicate bool   `json:"duplicate"`
	Shard     string `json:"-"`
}

// ingest posts one KB2B batch under a producer sequence. A 429 is
// returned as refused=true so the caller can count it and resend the same
// sequence; any other non-202 is an error. Through a router, ack.Shard is
// the shard that applied the batch (ack.Seq is that shard's sequence).
func (c *conn) ingest(ctx context.Context, base string, raw []byte, producer string, pseq uint64) (ack ingestAck, refused bool, err error) {
	hdr := map[string]string{"X-Producer": producer, "X-Batch-Seq": strconv.FormatUint(pseq, 10)}
	code, b, h, err := c.doHdr(ctx, http.MethodPost, base+"/ingest", raw, hdr)
	if err != nil {
		return ack, false, err
	}
	switch code {
	case http.StatusAccepted:
		ack.Shard = h.Get("X-KB2-Shard")
		return ack, false, json.Unmarshal(b, &ack)
	case http.StatusTooManyRequests:
		return ack, true, nil
	default:
		return ack, false, fmt.Errorf("ingest: %d %s", code, strings.TrimSpace(string(b)))
	}
}

// label posts one KB2B batch to /label and returns the labels.
func (c *conn) label(ctx context.Context, base string, raw []byte) ([]int, error) {
	code, b, err := c.do(ctx, http.MethodPost, base+"/label", raw, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("label: %d %s", code, strings.TrimSpace(string(b)))
	}
	var resp struct {
		Labels []int `json:"labels"`
	}
	return resp.Labels, json.Unmarshal(b, &resp)
}

// pendingSet tracks acked batches whose visibility has not been observed
// yet, keyed by the node that acked them. resolve marks every pending
// batch of a node with seq ≤ applied as visible at t.
type pendingSet struct {
	mu    sync.Mutex
	byN   map[string][]*batchRec
	queue []float64 // queue_len of every /stats answer sampleQueue saw
}

// visible reports whether rec has been observed applied; another
// producer's resolve may be what marked it.
func (p *pendingSet) visible(rec *batchRec) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !rec.visible.IsZero()
}

func (p *pendingSet) sampleQueue(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue = append(p.queue, float64(n))
}

func (p *pendingSet) add(node string, r *batchRec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byN == nil {
		p.byN = make(map[string][]*batchRec)
	}
	p.byN[node] = append(p.byN[node], r)
}

func (p *pendingSet) resolve(node string, applied uint64, t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rest := p.byN[node][:0]
	for _, r := range p.byN[node] {
		if r.seq <= applied {
			r.visible = t
		} else {
			rest = append(rest, r)
		}
	}
	p.byN[node] = rest
}
