package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/linalg"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// The crash harness proves the daemon's durability contract the honest
// way: it repeatedly kill -9s a REAL keybin2d process mid-ingest and
// audits, after every restart, that no acknowledged batch was lost. The
// invariants checked each cycle:
//
//  1. the recovered producer high-water mark covers every batch the
//     harness got a 202 for (an acked batch survived the kill), and
//  2. the daemon's applied point count reaches the sum of acked batch
//     points (the survivors were actually replayed into the stream).
//
// One batch per cycle is deliberately left in-flight when the kill
// lands; the harness re-sends it with the SAME producer sequence after
// the restart, exercising the idempotent-retry path: if the original
// made it into the WAL the daemon re-acks it as a duplicate, if not it
// is applied fresh — either way its points count exactly once.
//
// After the cycles, a final restart WITHOUT traffic asserts label
// consistency: recovery is deterministic, so a probe batch must label
// identically before and after one more kill -9.

type crashConfig struct {
	daemon   string // path to the keybin2d binary
	cycles   int
	dims     int
	batch    int // points per batch
	perCycle int // batches acked per cycle before the kill
	seed     int64
	dir      string // workdir: checkpoint, wal/, daemon log
	fsync    string
}

type crashReport struct {
	Cycles        int    `json:"cycles"`
	Fsync         string `json:"fsync"`
	BatchesAcked  int64  `json:"batches_acked"`
	PointsAcked   int64  `json:"points_acked"`
	DupesReacked  int64  `json:"duplicates_reacked"`
	FinalSeen     int64  `json:"final_seen"`
	FinalRefits   int64  `json:"final_refits"`
	ProbeLabels   int    `json:"probe_labels"`
	ProbeModelGen int64  `json:"probe_model_gen"`
}

// daemonProc is one spawned keybin2d process.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait result
}

func startDaemon(cc crashConfig, logW *os.File) (*daemonProc, error) {
	return startNode(cc.daemon, logW,
		"-addr", "127.0.0.1:0",
		"-dims", strconv.Itoa(cc.dims),
		"-range", "-12,12",
		"-trials", "2",
		"-period", "1000",
		"-seed", strconv.FormatInt(cc.seed, 10),
		"-queue-depth", "8",
		"-checkpoint", filepath.Join(cc.dir, "state.kb2s"),
		"-checkpoint-every", "300ms",
		"-wal-dir", filepath.Join(cc.dir, "wal"),
		"-fsync", cc.fsync,
		"-wal-segment-bytes", "65536", // small segments: rotation + truncation every few cycles
	)
}

// startNode spawns one keybin2d with the given flags and waits for its
// listen address — the shared launcher for the single-node crash cycles
// and the replica promotion cycles.
func startNode(daemon string, logW *os.File, args ...string) (*daemonProc, error) {
	cmd := exec.Command(daemon, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dp := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logW, line)
			if addr := listenAddr(line); addr != "" {
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	go func() { dp.done <- cmd.Wait() }()
	select {
	case dp.addr = <-addrCh:
	case err := <-dp.done:
		return nil, fmt.Errorf("daemon exited before listening: %v", err)
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("daemon never reported its listen address")
	}
	return dp, nil
}

// listenAddr extracts the daemon's bound address from its structured
// startup line (msg=listening addr=127.0.0.1:7420); "" for any other line.
func listenAddr(line string) string {
	if strings.Contains(line, "msg=listening") {
		for _, f := range strings.Fields(line) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				return strings.Trim(a, `"`)
			}
		}
	}
	return ""
}

// kill is the chaos event: SIGKILL, no drain, no goodbye.
func (dp *daemonProc) kill() {
	dp.cmd.Process.Kill()
	<-dp.done
}

// stop is a graceful SIGTERM drain (used only for the final shutdown).
func (dp *daemonProc) stop() error {
	dp.cmd.Process.Signal(os.Interrupt)
	select {
	case <-dp.done:
		return nil
	case <-time.After(30 * time.Second):
		dp.cmd.Process.Kill()
		<-dp.done
		return fmt.Errorf("daemon ignored SIGINT; killed")
	}
}

func waitHealthy(ctx context.Context, base string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became healthy", base)
}

func runCrashCycles(ctx context.Context, cc crashConfig) error {
	if cc.cycles <= 0 {
		return nil
	}
	if cc.dir == "" {
		d, err := os.MkdirTemp("", "kb2crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		cc.dir = d
	}
	logF, err := os.Create(filepath.Join(cc.dir, "daemon.log"))
	if err != nil {
		return err
	}
	defer logF.Close()

	spec := synth.AutoMixture(4, cc.dims, 6, 1, xrand.New(cc.seed))
	// mkBatch derives batch #pseq from the seed alone, so a re-send after
	// a crash reproduces the identical bytes the original ack covered.
	mkBatch := func(pseq uint64) *linalg.Matrix {
		b, _ := spec.Sample(cc.batch, xrand.New(cc.seed+int64(pseq)))
		return b
	}
	const producer = "chaos"
	rep := crashReport{Cycles: cc.cycles, Fsync: cc.fsync}
	var (
		nextPseq  uint64 // last allocated producer sequence
		acked     uint64 // highest pseq the harness holds a 202 for
		pending   uint64 // in-flight pseq with unknown fate (0 = none)
		pendAcked bool   // pending WAS acked but the ack was "lost": the re-send MUST dedupe
	)
	// sendAcked submits one pseq with bounded backpressure patience and
	// records the ack. Duplicate re-acks count their points once (now).
	sendAcked := func(c *client.Client, pseq uint64) (client.IngestAck, error) {
		for attempt := 0; ; attempt++ {
			ack, err := c.IngestSeq(ctx, mkBatch(pseq), pseq)
			if err == nil {
				if ack.Duplicate {
					rep.DupesReacked++
				}
				rep.BatchesAcked++
				rep.PointsAcked += int64(cc.batch)
				if pseq > acked {
					acked = pseq
				}
				return ack, nil
			}
			var bp *client.ErrBackpressure
			if !errors.As(err, &bp) {
				return ack, fmt.Errorf("ingest pseq %d: %w", pseq, err)
			}
			if attempt > 200 {
				return ack, fmt.Errorf("ingest pseq %d: backpressure never cleared", pseq)
			}
			time.Sleep(bp.RetryAfter)
		}
	}
	// audit asserts the durability invariants against a just-restarted
	// daemon: the producer high-water mark covers every ack, and the
	// applied point count catches up to the acked volume. Each recovery is
	// logged with the incarnation's run-ID and what its WAL replay did, so
	// a failure here can be matched to the exact daemon log/trace stream.
	audit := func(c *client.Client, cycle int) error {
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		if st.WAL != nil {
			fmt.Fprintf(os.Stderr, "crash: cycle %d recovered run_id=%s replayed_batches=%d replayed_points=%d last_seq=%d\n",
				cycle, st.RunID, st.WAL.ReplayedBatches, st.WAL.ReplayedPoints, st.WAL.LastSeq)
		} else {
			fmt.Fprintf(os.Stderr, "crash: cycle %d recovered run_id=%s (no wal)\n", cycle, st.RunID)
		}
		if st.Producers[producer] < acked {
			return fmt.Errorf("cycle %d: ACKED BATCH LOST: daemon recovered producer seq %d, harness holds ack for %d",
				cycle, st.Producers[producer], acked)
		}
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := c.WaitSeen(wctx, rep.PointsAcked); err != nil {
			return fmt.Errorf("cycle %d: acked points never replayed: %w", cycle, err)
		}
		return nil
	}

	for cycle := 1; cycle <= cc.cycles; cycle++ {
		dp, err := startDaemon(cc, logF)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		base := "http://" + dp.addr
		if err := waitHealthy(ctx, base); err != nil {
			dp.kill()
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		c := client.NewWithHTTPClient(base, &http.Client{Timeout: 5 * time.Second})
		c.SetProducer(producer)
		if err := audit(c, cycle); err != nil {
			dp.kill()
			return err
		}
		// Settle the previous cycle's in-flight batch first: same pseq,
		// so a WAL'd original dedupes the re-send.
		if pending != 0 {
			ack, err := sendAcked(c, pending)
			if err != nil {
				dp.kill()
				return fmt.Errorf("cycle %d: resend: %w", cycle, err)
			}
			if pendAcked && !ack.Duplicate {
				dp.kill()
				return fmt.Errorf("cycle %d: pseq %d was acked before the kill but re-applied after it: the WAL lost an acknowledged batch", cycle, pending)
			}
			pending, pendAcked = 0, false
		}
		for i := 0; i < cc.perCycle; i++ {
			nextPseq++
			if _, err := sendAcked(c, nextPseq); err != nil {
				dp.kill()
				return fmt.Errorf("cycle %d: %w", cycle, err)
			}
		}
		nextPseq++
		pending = nextPseq
		if cycle%2 == 0 {
			// Lost-ack cycle: the daemon acks the batch, the harness drops
			// the ack on the floor (as a crashed producer would). The
			// re-send above, next cycle, must come back as a duplicate —
			// proving the acked batch survived the kill in the WAL.
			if _, err := c.IngestSeq(ctx, mkBatch(pending), pending); err == nil {
				pendAcked = true
			}
		} else {
			// Race cycle: leave the batch in flight and pull the trigger
			// while it races the WAL append; the kill decides its fate.
			go func(pseq uint64) {
				c.IngestSeq(ctx, mkBatch(pseq), pseq)
			}(pending)
		}
		dp.kill()
		fmt.Fprintf(os.Stderr, "crash: cycle %d/%d killed daemon at acked pseq %d (%d points)\n",
			cycle, cc.cycles, acked, rep.PointsAcked)
	}

	// Final pass: recover, settle the last in-flight batch, then prove a
	// traffic-free kill/restart does not change what the model says.
	dp, err := startDaemon(cc, logF)
	if err != nil {
		return err
	}
	base := "http://" + dp.addr
	if err := waitHealthy(ctx, base); err != nil {
		dp.kill()
		return err
	}
	c := client.NewWithHTTPClient(base, &http.Client{Timeout: 5 * time.Second})
	c.SetProducer(producer)
	if err := audit(c, cc.cycles+1); err != nil {
		dp.kill()
		return err
	}
	if pending != 0 {
		ack, err := sendAcked(c, pending)
		if err != nil {
			dp.kill()
			return err
		}
		if pendAcked && !ack.Duplicate {
			dp.kill()
			return fmt.Errorf("final: pseq %d was acked before the kill but re-applied after it: the WAL lost an acknowledged batch", pending)
		}
		pending = 0
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = c.WaitSeen(wctx, rep.PointsAcked)
	cancel()
	if err != nil {
		dp.kill()
		return err
	}
	probe, _ := spec.Sample(256, xrand.New(cc.seed+7))
	before, err := c.Label(ctx, probe)
	if err != nil {
		dp.kill()
		return err
	}
	dp.kill()

	dp, err = startDaemon(cc, logF)
	if err != nil {
		return err
	}
	base = "http://" + dp.addr
	if err := waitHealthy(ctx, base); err != nil {
		dp.kill()
		return err
	}
	c = client.NewWithHTTPClient(base, &http.Client{Timeout: 5 * time.Second})
	after, err := c.Label(ctx, probe)
	if err != nil {
		dp.kill()
		return err
	}
	mismatch := 0
	for i := range before.Labels {
		if before.Labels[i] != after.Labels[i] {
			mismatch++
		}
	}
	if mismatch > 0 {
		dp.kill()
		return fmt.Errorf("restart changed %d of %d probe labels (gen %d → %d): recovery is not deterministic",
			mismatch, len(before.Labels), before.ModelGen, after.ModelGen)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		dp.kill()
		return err
	}
	rep.FinalSeen = st.Seen
	rep.FinalRefits = st.Refits
	rep.ProbeLabels = len(after.Labels)
	rep.ProbeModelGen = after.ModelGen
	if err := dp.stop(); err != nil {
		return err
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	os.Stdout.Write(append(enc, '\n'))
	fmt.Fprintf(os.Stderr, "crash: %d kill -9 cycles, %d batches (%d points) acked, 0 lost; %d probe labels stable\n",
		rep.Cycles, rep.BatchesAcked, rep.PointsAcked, rep.ProbeLabels)
	return nil
}
