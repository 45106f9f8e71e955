package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Fencing epochs: split-brain prevention for replica sets.
//
// Every promotion mints a monotone cluster epoch (or adopts one handed
// down by the failover supervisor). The epoch travels with the data
// plane — ingest acks and 412 bodies carry it in JSON, every control
// response and the WAL tail carry it in X-KB2-Epoch — so clients and
// followers learn the newest epoch from normal traffic, and a zombie
// ex-primary that comes back from a partition is rejected with a typed
// stale-epoch error by anything that has seen a newer epoch.
//
// The invariants:
//
//   - The epoch only moves forward on a node (raiseEpoch is a CAS max).
//   - /promote?epoch=N requires N > the node's epoch (absent N mints
//     current+1); the new primary therefore always outranks every node
//     that was alive at the old epoch.
//   - /fence?epoch=N requires N >= the node's epoch. Fencing a primary
//     sets the fenced flag BEFORE the writer drains, and the ingest path
//     re-checks it under ingestMu and again after the durability wait,
//     so no batch can be accepted (or late-acked) behind a fence.
//   - A request whose X-KB2-Epoch token is NEWER than the node's epoch
//     is answered 412: the node is the stale party. An OLDER token is
//     accepted — a lagging client writing to the true primary is fine,
//     and the ack's epoch catches it up.
//
// Epochs are deliberately NOT persisted: a restarted node rejoins at its
// configured epoch (default 0) and the supervisor re-adopts or fences it
// by comparing against the fleet; client epoch tokens fence a zombie
// even before the supervisor reaches it.

// roleReq asks the serving loop to change role: a promote (follower →
// primary, minting or adopting epoch) or a demote (fenced primary →
// follower of primary). done receives exactly one result.
type roleReq struct {
	epoch   int64  // promote: 0 = mint current+1; demote: the fencing epoch
	primary string // demote: base URL of the new primary to follow
	done    chan roleResult
}

type roleResult struct {
	err        error
	epoch      int64
	appliedSeq uint64
}

var (
	errAlreadyPrimary = errors.New("already a primary")
	errNotPrimary     = errors.New("not a primary")
)

// staleEpochError is the typed form of a fencing rejection inside the
// server; over HTTP it becomes a 412 with both epochs in the body.
type staleEpochError struct {
	NodeEpoch    int64
	RequestEpoch int64
}

func (e *staleEpochError) Error() string {
	return fmt.Sprintf("stale epoch: node is at %d, request carried %d", e.NodeEpoch, e.RequestEpoch)
}

// raiseEpoch moves the cluster epoch forward to at least epoch. Returns
// whether this call raised it. Concurrency-safe (CAS max).
func (s *Server) raiseEpoch(epoch int64) bool {
	for {
		cur := s.clusterEpoch.Load()
		if epoch <= cur {
			return false
		}
		if s.clusterEpoch.CompareAndSwap(cur, epoch) {
			s.logf("epoch: %d -> %d", cur, epoch)
			return true
		}
	}
}

// primaryHint is the best-known primary base URL: the followed upstream
// on a follower, the fence's re-point target on a fenced node, empty on
// a healthy standalone primary.
func (s *Server) primaryHint() string {
	if p := s.primaryURL.Load(); p != nil {
		return *p
	}
	return ""
}

func (s *Server) setPrimaryURL(u string) {
	u = strings.TrimRight(u, "/")
	if u == "" {
		return
	}
	s.primaryURL.Store(&u)
}

// writeStaleEpoch answers a request rejected by epoch fencing: 412
// Precondition Failed with the node's epoch in X-KB2-Epoch, plus both
// epochs and the best-known primary in the JSON body so the caller can
// re-discover the leader without a second round trip.
func (s *Server) writeStaleEpoch(w http.ResponseWriter, reqEpoch int64) {
	node := s.clusterEpoch.Load()
	primary := s.primaryHint()
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(node, 10))
	if primary != "" {
		w.Header().Set("X-KB2-Primary", primary)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusPreconditionFailed)
	json.NewEncoder(w).Encode(map[string]any{
		"error":         "stale epoch",
		"node_epoch":    node,
		"request_epoch": reqEpoch,
		"primary":       primary,
	})
	s.tel.staleEpochRejects.Inc()
}

// requestEpoch parses the X-KB2-Epoch fencing token. 0 = no token.
func requestEpoch(r *http.Request) (int64, error) {
	v := r.Header.Get("X-KB2-Epoch")
	if v == "" {
		return 0, nil
	}
	e, err := strconv.ParseInt(v, 10, 64)
	if err != nil || e < 0 {
		return 0, fmt.Errorf("bad X-KB2-Epoch %q", v)
	}
	return e, nil
}

// checkIngestEpoch applies the fencing checks every ingest must pass
// before touching the body: a token newer than the node's epoch means
// the node is stale (a zombie behind a partition), and a fenced node
// takes no writes at all. Returns false with the 412 already written.
func (s *Server) checkIngestEpoch(w http.ResponseWriter, r *http.Request) (reqEpoch int64, ok bool) {
	reqEpoch, err := requestEpoch(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return 0, false
	}
	if reqEpoch > s.clusterEpoch.Load() {
		s.writeStaleEpoch(w, reqEpoch)
		return reqEpoch, false
	}
	if s.fenced.Load() {
		s.writeStaleEpoch(w, reqEpoch)
		return reqEpoch, false
	}
	return reqEpoch, true
}

// roleRequest round-trips one roleReq through the serving loop, nudging
// a parked tail first so a long poll never delays the switch. Returns
// the loop's result or an error when the request could not be delivered.
func (s *Server) roleRequest(ch chan *roleReq, req *roleReq, r *http.Request) (roleResult, error) {
	s.nudgeFollower()
	select {
	case ch <- req:
	case <-s.done:
		return roleResult{}, errors.New("server is shutting down")
	case <-r.Context().Done():
		return roleResult{}, r.Context().Err()
	}
	select {
	case res := <-req.done:
		return res, nil
	case <-r.Context().Done():
		// The loop will still complete the switch; only the caller left.
		return roleResult{}, r.Context().Err()
	}
}

// handleFence is POST /fence?epoch=N[&primary=URL]: fence this node at
// epoch N (which must be >= its current epoch). On a follower it adopts
// the epoch and re-points the tail at the given primary. On a primary it
// stops ingest at the fence line and — when a primary URL is given —
// demotes in place: the writer drains what it accepted before the fence,
// checkpoints, closes its WAL, and becomes a follower of the new
// primary. Fencing the unfenced primary at its OWN epoch is refused
// (409): that node is the epoch's legitimate owner.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch < 1 {
		http.Error(w, "fence requires epoch=N (N >= 1)", http.StatusBadRequest)
		return
	}
	primary := strings.TrimRight(r.URL.Query().Get("primary"), "/")
	if cur := s.clusterEpoch.Load(); epoch < cur {
		s.writeStaleEpoch(w, epoch) // the fence itself is stale
		return
	}
	if s.follower.Load() {
		// A follower adopts the epoch and, when told, re-points its tail.
		s.raiseEpoch(epoch)
		if primary != "" && primary != s.primaryHint() {
			s.setPrimaryURL(primary)
			s.logf("fence: now following %s (epoch %d)", primary, epoch)
			s.nudgeFollower()
		}
		s.writeRoleStatus(w)
		return
	}
	if epoch == s.clusterEpoch.Load() && !s.fenced.Load() {
		http.Error(w, fmt.Sprintf("node is the primary at epoch %d; fencing it requires a newer epoch", epoch),
			http.StatusConflict)
		return
	}
	s.raiseEpoch(epoch)
	if !s.fenced.Swap(true) {
		s.tel.fences.Inc()
		s.logf("fenced at epoch %d (primary hint %q)", epoch, primary)
	}
	if primary != "" {
		s.setPrimaryURL(primary)
		req := &roleReq{epoch: epoch, primary: primary, done: make(chan roleResult, 1)}
		res, rerr := s.roleRequest(s.demoteCh, req, r)
		if rerr != nil {
			return // caller gone or shutting down; the fence itself is in place
		}
		// errNotPrimary means a concurrent demote won the race — the node
		// is already a follower, which is the state this fence wanted.
		if res.err != nil && !errors.Is(res.err, errNotPrimary) {
			http.Error(w, "demote: "+res.err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.writeRoleStatus(w)
}

// handleEpoch is POST /epoch?epoch=N: the supervisor's adoption path. It
// raises the epoch of the CURRENT primary (initial adoption mints epoch
// 1 for an unmanaged group; re-adoption after a primary restart restores
// its recorded epoch). A follower refuses — its epoch arrives through
// /fence, /promote, or the WAL tail.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch < 1 {
		http.Error(w, "epoch requires epoch=N (N >= 1)", http.StatusBadRequest)
		return
	}
	if s.follower.Load() {
		http.Error(w, "follower: epoch is adopted via /fence, /promote, or the tail", http.StatusConflict)
		return
	}
	if cur := s.clusterEpoch.Load(); epoch < cur {
		s.writeStaleEpoch(w, epoch)
		return
	}
	s.raiseEpoch(epoch)
	s.writeRoleStatus(w)
}

// writeRoleStatus answers a control request with the node's role view.
func (s *Server) writeRoleStatus(w http.ResponseWriter) {
	role := "primary"
	if s.follower.Load() {
		role = "follower"
	}
	epoch := s.clusterEpoch.Load()
	w.Header().Set("X-KB2-Epoch", strconv.FormatInt(epoch, 10))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"role":        role,
		"epoch":       epoch,
		"fenced":      s.fenced.Load(),
		"primary":     s.primaryHint(),
		"applied_seq": s.appliedSeqA.Load(),
	})
}

// nudgeFollower breaks the follower loop out of a parked long poll or a
// reconnect backoff so a pending role change is observed immediately.
// Buffered: a nudge fired between tail rounds cancels the next round.
func (s *Server) nudgeFollower() {
	select {
	case s.nudge <- struct{}{}:
	default:
	}
}

// demote is the writer-side half of fencing a primary into a follower.
// It runs on the serving-loop goroutine. The fenced flag is already set
// (and the ingest path re-checks it under ingestMu), so taking ingestMu
// once is a barrier: afterwards no handler can add to the queue. The
// drain applies everything accepted before the fence line, a durability
// wait satisfies any in-flight group-commit waiters, and the WAL closes
// before the follower flag flips — the tail will re-open nothing.
func (s *Server) demote(primary string, epoch int64) error {
	if primary == "" {
		return errors.New("demote requires a primary to follow")
	}
	s.ingestMu.Lock()
	s.ingestMu.Unlock() //nolint:staticcheck // barrier: in-flight accepts have enqueued
drain:
	for {
		select {
		case it := <-s.queue:
			s.apply(it)
		default:
			break drain
		}
	}
	s.checkpoint()
	if wal := s.wal.Load(); wal != nil {
		if _, err := wal.WaitDurable(wal.LastSeq()); err != nil {
			s.logf("demote: wal sync: %v", err)
		}
		if err := wal.Close(); err != nil {
			s.logf("demote: wal close: %v", err)
		}
		s.wal.Store(nil)
	}
	s.setPrimaryURL(primary)
	s.primaryLastSeq.Store(0)
	s.behindSince.Store(time.Now().UnixNano())
	s.follower.Store(true)
	s.fenced.Store(false) // a follower is not fenced; it simply has no write path
	s.tel.demotions.Inc()
	s.logf("demoted to follower of %s at epoch %d (applied seq %d)", primary, epoch, s.appliedSeq)
	return nil
}
