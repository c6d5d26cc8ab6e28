// Replication: streaming the durability journal to hot-standby
// followers, so an acknowledged session state survives not just a
// process crash (the journal) but the loss of the node.
//
// Topology: a Server is in one of two roles. The primary serves the
// full API and streams its journal; a follower (Config.Follow) streams
// the primary's journal into its own state dir and answers degraded
// reads until Promote turns it into the primary in place. Each follower
// holds one full-duplex stream. It opens it with GET
// /v1/replicate?gen&off&recs&epoch&id from its durable journal position
// (gen, off), asking to upgrade to dmc-repl/1; the primary answers 101
// Switching Protocols, takes the connection over, and from then on
// sends messages: a chunk of whole CRC32 frames, a full
// snapshot+journal reset transfer when the position is not addressable
// in the current journal incarnation (the follower is new, diverged,
// or the primary compacted), or an empty heartbeat after replHeartbeat
// of idle time. Each message is a fixed little-endian header
// (replMsgHeaderLen) followed by the same framed bytes the journal
// holds. The follower answers every message with a 32-byte ack carrying
// its new cursor, written only after the message is fsync'd into its
// own journal and folded, so the primary reading "ack at (g, o)" knows
// everything before (g, o) is durable on that follower.
//
// One message is in flight per stream: the primary reads the journal
// for the next message only after the previous one's ack, so
// everything appended meanwhile rides in one chunk — the follower's
// fsync batches itself. The sender otherwise sleeps until the journal
// changes. A follower that hears nothing for replDeadline (a few
// heartbeats) drops the stream and reconnects after replRetry; a
// primary prunes a follower whose acks stopped for staleFollowerAfter.
// A follower names itself by hostname and absolute state dir, so every
// follower of one primary has its own entry in the follower table.
//
// Ack modes: async (default) acknowledges writes once locally
// journaled; sync withholds the 2xx until at least one follower's
// cursor passes the record — "acknowledged means replicated". A
// sync-mode timeout fails the request even though the record is
// locally durable: the operator asked for replicated durability, and
// reporting less would be a lie.
//
// Fencing: every record carries its writing primary's epoch
// (scenario.SnapshotRecord.Epoch, schema v2). Promotion bumps the
// epoch and durably stamps it (a full snapshot at the new epoch), so
// after a partition heals, a stale primary's stream is identifiable:
// a follower that saw epoch E rejects any primary announcing less
// (ErrFenced), and a primary 409s any handshake (and closes any stream
// whose ack) carrying more — the stale side must rejoin as a follower,
// taking a reset transfer that discards its divergent suffix instead of
// merging it.
//
// Lock discipline: replication network IO never runs under Server.smu,
// a session mutex, or replState.mu. The sender reads journal bytes
// under the persister's own mutex (that mutex exists to serialize file
// IO) and writes to the network after release; the follower parses and
// validates a message before touching its own journal.

package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmc/internal/fault"
	"dmc/internal/scenario"
)

// Replication acknowledgement modes (Config.ReplAck).
const (
	ReplAckAsync = "async"
	ReplAckSync  = "sync"
)

// The replication layer's injection seams: the primary's send path
// (the handshake and every message), the follower's apply path
// (between receiving a message and persisting it), and promotion's
// epoch-stamping snapshot.
var (
	fpReplSend    = fault.Register("repl.send")
	fpReplApply   = fault.Register("repl.apply")
	fpReplPromote = fault.Register("repl.promote")
)

// ErrFenced reports a fenced replication stream: the primary announced
// an epoch older than one this follower has already seen, so the
// primary is a stale pre-failover survivor and must not be followed.
var ErrFenced = errors.New("serve: replication stream fenced: primary epoch is stale")

// errReplBodyTooLarge reports a message header announcing a body past
// its kind's cap; the follower rejects it before allocating anything.
var errReplBodyTooLarge = errors.New("serve: replication message body exceeds its cap")

// replProto is the Upgrade token that opens a replication stream.
const replProto = "dmc-repl/1"

// Stream message kinds, the first field of a message header.
const (
	msgChunk uint32 = iota + 1
	msgReset
	msgHeartbeat
)

const (
	// replMsgHeaderLen is a message header: kind, snapshot length and
	// body length (uint32 each), then gen, off, recs and epoch (64 bits
	// each), all little-endian. (gen, off) is the follower's cursor once
	// it has durably applied the body; a reset body is snapshot-length
	// bytes of snapshot followed by the journal.
	replMsgHeaderLen = 44
	// replAckLen is a follower ack: gen, off, recs and epoch (64 bits
	// each, little-endian).
	replAckLen = 32
	// maxReplBody bounds a reset transfer's body, which carries a full
	// snapshot: large at millions of sessions, but nowhere near this. A
	// chunk is bounded by maxReplChunk.
	maxReplBody = 1 << 30
)

// replHeartbeat is how long a stream may sit idle before the primary
// sends an empty heartbeat, which the follower acks: an idle follower
// stays fresh in the primary's table and an idle primary proves it is
// alive. A variable only so tests can shorten it; the liveness windows
// below scale with it.
var replHeartbeat = 10 * time.Second

// replDeadline is how long a follower waits for any message, and a
// primary for an ack, before presuming the other side gone and closing
// the stream.
func replDeadline() time.Duration { return 3 * replHeartbeat }

// staleFollowerAfter is how long a silent follower stays in the
// primary's follower table (and its lag in /healthz) before it is
// presumed gone and pruned.
func staleFollowerAfter() time.Duration { return 6 * replHeartbeat }

// followerInfo is the primary's view of one follower: its durable
// position (the last ack's cursor), applied record count, fencing
// epoch, and when it was last heard from.
type followerInfo struct {
	id       string
	pos      replPos
	recs     int64
	epoch    uint64
	lastSeen time.Time
}

// ackWaiter parks one sync-mode append until a follower's cursor
// passes pos.
type ackWaiter struct {
	pos replPos
	ch  chan struct{}
}

// replState is the primary's replication bookkeeping: the follower
// table and the sync-ack high-water mark with its waiters.
type replState struct {
	s *Server

	// ctx ends with shutdown, which releases every sync-ack waiter and
	// closes every open stream.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	followers map[string]*followerInfo
	// acked is the replicated high-water mark: the maximum position any
	// follower has durably reached. Any-replica acknowledgement — sync
	// mode promises one surviving copy, not a quorum (see ROADMAP
	// follow-ons).
	acked   replPos
	waiters map[*ackWaiter]struct{}

	streamsOpened atomic.Uint64
	chunksServed  atomic.Uint64
	resetsServed  atomic.Uint64
	syncTimeouts  atomic.Uint64
	fencedPolls   atomic.Uint64
}

func newReplState(s *Server) *replState {
	ctx, cancel := context.WithCancel(context.Background())
	return &replState{
		s:         s,
		ctx:       ctx,
		cancel:    cancel,
		followers: make(map[string]*followerInfo),
		waiters:   make(map[*ackWaiter]struct{}),
	}
}

// shutdown releases every sync-ack waiter and future waits — their
// records are locally durable, only the replication confirmation is
// abandoned — and closes every stream; new handshakes answer 503.
func (r *replState) shutdown() { r.cancel() }

// observeFollower folds one handshake or ack into the follower table
// and advances the acked high-water mark, waking satisfied sync
// waiters. No IO runs under r.mu.
func (r *replState) observeFollower(id string, pos replPos, recs int64, epoch uint64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.followers[id]
	if f == nil {
		f = &followerInfo{id: id}
		r.followers[id] = f
	}
	f.pos, f.recs, f.epoch, f.lastSeen = pos, recs, epoch, now
	if pos.atOrPast(r.acked) {
		r.acked = pos
	}
	for w := range r.waiters {
		if r.acked.atOrPast(w.pos) {
			close(w.ch)
			delete(r.waiters, w)
		}
	}
}

// waitAcked blocks a sync-mode append until a follower durably holds
// pos, the ack timeout passes, or the server stops. In async mode it
// returns immediately. A non-nil error means the caller must fail its
// request: the record is journaled locally, but "acknowledged means
// replicated" could not be honored.
func (r *replState) waitAcked(pos replPos) error {
	if r.s.cfg.ReplAck != ReplAckSync {
		return nil
	}
	r.mu.Lock()
	if r.acked.atOrPast(pos) {
		r.mu.Unlock()
		return nil
	}
	w := &ackWaiter{pos: pos, ch: make(chan struct{})}
	r.waiters[w] = struct{}{}
	r.mu.Unlock()

	t := time.NewTimer(r.s.cfg.ReplAckTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
		return nil
	case <-r.ctx.Done():
		r.drop(w)
		return fmt.Errorf("serve: shutting down before a follower acknowledged the write (locally durable, replication unconfirmed)")
	case <-t.C:
		r.syncTimeouts.Add(1)
		r.drop(w)
		return fmt.Errorf("serve: no follower acknowledged the write within %v (locally durable, replication unconfirmed)", r.s.cfg.ReplAckTimeout)
	}
}

func (r *replState) drop(w *ackWaiter) {
	r.mu.Lock()
	delete(r.waiters, w)
	r.mu.Unlock()
}

// appendDurable is the write path's single durability call: journal the
// record locally (fsync per Config), then — in sync mode — hold the
// acknowledgement until a follower has it too. A compaction between the
// append and the ack satisfies the wait naturally: it bumps the journal
// gen, the follower takes a reset transfer whose snapshot contains the
// record's state, and the follower's new-gen cursor passes the old-gen
// position by definition (atOrPast).
func (s *Server) appendDurable(rec *scenario.SnapshotRecord) error {
	pos, err := s.persist.append(rec)
	if err != nil {
		return err
	}
	if s.repl != nil {
		return s.repl.waitAcked(pos)
	}
	return nil
}

// lagSnapshot computes per-follower replication lag against the current
// journal tail, pruning followers silent past staleFollowerAfter. The
// persister cursor is read before taking r.mu — the two locks never
// nest.
func (r *replState) lagSnapshot() []ReplFollowerMetrics {
	cur := r.s.persist.cursor()
	curRecs := r.s.persist.recordsInGen()
	now := time.Now()
	stale := staleFollowerAfter()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ReplFollowerMetrics, 0, len(r.followers))
	for id, f := range r.followers {
		if now.Sub(f.lastSeen) > stale {
			delete(r.followers, id)
			continue
		}
		m := ReplFollowerMetrics{
			ID:         f.id,
			Epoch:      f.epoch,
			LastSeenMs: float64(now.Sub(f.lastSeen)) / float64(time.Millisecond),
		}
		if f.pos.gen == cur.gen {
			m.LagBytes = cur.off - f.pos.off
			m.LagRecords = curRecs - f.recs
		} else {
			// A cursor from another incarnation: the next message is a
			// reset transfer, so the whole current journal is outstanding.
			m.Resync = true
			m.LagBytes = cur.off
			m.LagRecords = curRecs
		}
		out = append(out, m)
	}
	return out
}

// replHealth reports replication trouble for /healthz: the worst
// follower lag over Config.ReplLagWarn, or — in sync mode — no
// followers connected at all (every write is failing its ack wait).
func (r *replState) replHealth() []string {
	var out []string
	lags := r.lagSnapshot()
	if len(lags) == 0 {
		if r.s.cfg.ReplAck == ReplAckSync {
			out = append(out, "sync replication with no follower connected")
		}
		return out
	}
	if warn := r.s.cfg.ReplLagWarn; warn > 0 {
		for _, f := range lags {
			if f.LagBytes > warn {
				out = append(out, fmt.Sprintf("follower %q replication lag %d bytes (threshold %d)", f.ID, f.LagBytes, warn))
			}
		}
	}
	return out
}

// handleReplicate is the primary's side of the stream: it checks one
// follower's handshake, upgrades the connection, and streams until the
// follower goes away, fences this primary, or replication shuts down.
// Registered only when persistence is on; a follower answers 503 until
// it is promoted.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.primary.Load() {
		writeErr(w, http.StatusServiceUnavailable, "serve: this node is a follower; replicate from the primary")
		return
	}
	if s.closed.Load() || s.repl.ctx.Err() != nil {
		writeErr(w, http.StatusServiceUnavailable, "serve: shutting down")
		return
	}
	q := r.URL.Query()
	gen, _ := strconv.ParseUint(q.Get("gen"), 10, 64)
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	recs, _ := strconv.ParseInt(q.Get("recs"), 10, 64)
	fepoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	id := q.Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	if fepoch > s.epoch {
		// The follower has seen a newer primary than us: we are the stale
		// survivor of a failover. Refuse to serve — feeding our divergent
		// journal to the fleet is exactly what fencing exists to prevent.
		s.repl.fencedPolls.Add(1)
		writeErr(w, http.StatusConflict,
			"serve: replication handshake carries epoch %d, newer than this primary's %d; this primary is fenced and must rejoin as a follower", fepoch, s.epoch)
		return
	}
	if err := fpReplSend.Hit(); err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: replication send: %v", err)
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), replProto) || !headerHasToken(r.Header["Connection"], "upgrade") {
		w.Header().Set("Upgrade", replProto)
		w.Header().Set("Connection", "Upgrade")
		writeErr(w, http.StatusUpgradeRequired, "serve: /v1/replicate is a %s stream: send Connection: Upgrade and Upgrade: %s", replProto, replProto)
		return
	}
	pos := replPos{gen: gen, off: off}
	// The handshake position is the follower's durable acknowledgement.
	s.repl.observeFollower(id, pos, recs, fepoch)
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: replication upgrade: %v", err)
		return
	}
	defer conn.Close()
	// The stream outlives the http.Server's read and write timeouts
	// (cmd/dmcd sets them against slowloris clients); it keeps its own
	// liveness deadline instead.
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: "+replProto+"\r\nConnection: Upgrade\r\n\r\n"); err != nil {
		return
	}
	s.repl.streamsOpened.Add(1)
	s.repl.stream(conn, brw.Reader, id, pos)
}

// headerHasToken reports whether a comma-separated header carries tok,
// case-insensitively (Connection: keep-alive, Upgrade).
func headerHasToken(values []string, tok string) bool {
	for _, v := range values {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), tok) {
				return true
			}
		}
	}
	return false
}

// stream serves one follower until the connection fails, the follower
// goes silent or fences us, or replication shuts down: read the
// journal from the follower's cursor, send one message, wait for its
// ack, repeat. Only one message is in flight, so whatever is appended
// while the follower applies the last one rides in the next chunk.
// While caught up it sleeps on journal change and heartbeats after
// replHeartbeat of idle time.
func (r *replState) stream(conn net.Conn, br *bufio.Reader, id string, pos replPos) {
	// Shutdown closes the connection, unblocking any read or write.
	defer context.AfterFunc(r.ctx, func() { conn.Close() })()
	p := r.s.persist
	every, deadline := replHeartbeat, replDeadline()
	idle := time.NewTimer(every)
	defer idle.Stop()
	var hdr [replMsgHeaderLen]byte
	var ack [replAckLen]byte
	for {
		// Grab the change channel before reading: an append landing
		// between the read and the wait must wake us.
		changed := p.waitCh()
		data, next, n, reset, err := p.readJournal(pos)
		if err != nil {
			return
		}
		m := replMsg{kind: msgChunk, bodyLen: len(data), next: next, recs: int64(n), epoch: r.s.epoch}
		msg := net.Buffers{hdr[:], data}
		switch {
		case reset:
			snap, jour, tail, jrecs, err := p.readForReset()
			if err != nil {
				return
			}
			m = replMsg{kind: msgReset, snapLen: len(snap), bodyLen: len(snap) + len(jour), next: tail, recs: jrecs, epoch: r.s.epoch}
			msg = net.Buffers{hdr[:], snap, jour}
		case len(data) == 0:
			idle.Reset(every)
			select {
			case <-changed:
				continue
			case <-r.ctx.Done():
				return
			case <-idle.C:
			}
			m = replMsg{kind: msgHeartbeat, next: pos, epoch: r.s.epoch}
			msg = msg[:1]
		}
		if fpReplSend.Hit() != nil {
			return
		}
		m.put(hdr[:])
		if _, err := msg.WriteTo(conn); err != nil {
			return
		}
		switch m.kind {
		case msgChunk:
			r.chunksServed.Add(1)
		case msgReset:
			r.resetsServed.Add(1)
		}
		if conn.SetReadDeadline(time.Now().Add(deadline)) != nil {
			return
		}
		if _, err := io.ReadFull(br, ack[:]); err != nil {
			return
		}
		apos, arecs, aepoch := decodeAck(ack[:])
		if aepoch > r.s.epoch {
			// Same verdict as a handshake carrying a newer epoch.
			r.fencedPolls.Add(1)
			return
		}
		r.observeFollower(id, apos, arecs, aepoch)
		pos = apos
	}
}

// replMsg is one stream message's header (see replMsgHeaderLen).
type replMsg struct {
	kind             uint32
	snapLen, bodyLen int
	next             replPos
	recs             int64
	epoch            uint64
}

func (m replMsg) put(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[0:], m.kind)
	le.PutUint32(b[4:], uint32(m.snapLen))
	le.PutUint32(b[8:], uint32(m.bodyLen))
	le.PutUint64(b[12:], m.next.gen)
	le.PutUint64(b[20:], uint64(m.next.off))
	le.PutUint64(b[28:], uint64(m.recs))
	le.PutUint64(b[36:], m.epoch)
}

// readReplMsg reads one message: its header, whose lengths are checked
// against the kind's cap before anything is allocated, then its body
// into buf, grown only as bytes arrive. The returned body aliases buf's
// storage when it fits.
func readReplMsg(r io.Reader, hdr *[replMsgHeaderLen]byte, buf []byte) (replMsg, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return replMsg{}, buf, err
	}
	le := binary.LittleEndian
	kind, snapLen, bodyLen := le.Uint32(hdr[0:]), le.Uint32(hdr[4:]), le.Uint32(hdr[8:])
	var limit uint32
	switch kind {
	case msgChunk:
		limit = maxReplChunk
	case msgReset:
		limit = maxReplBody
	case msgHeartbeat:
	default:
		return replMsg{}, buf, fmt.Errorf("serve: replication message of unknown kind %d", kind)
	}
	if bodyLen > limit {
		return replMsg{}, buf, fmt.Errorf("%w: kind %d announces %d bytes (cap %d)", errReplBodyTooLarge, kind, bodyLen, limit)
	}
	if snapLen > bodyLen || (kind != msgReset && snapLen != 0) {
		return replMsg{}, buf, fmt.Errorf("serve: replication message of kind %d with snapshot length %d (body %d bytes)", kind, snapLen, bodyLen)
	}
	m := replMsg{
		kind:    kind,
		snapLen: int(snapLen),
		bodyLen: int(bodyLen),
		next:    replPos{gen: le.Uint64(hdr[12:]), off: int64(le.Uint64(hdr[20:]))},
		recs:    int64(le.Uint64(hdr[28:])),
		epoch:   le.Uint64(hdr[36:]),
	}
	buf = buf[:0]
	for len(buf) < m.bodyLen {
		step := min(m.bodyLen-len(buf), maxReplChunk)
		buf = slices.Grow(buf, step)
		n, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return replMsg{}, buf, fmt.Errorf("serve: replication message torn after %d of %d body bytes: %w", len(buf), m.bodyLen, err)
		}
	}
	return m, buf, nil
}

func putAck(b []byte, pos replPos, recs int64, epoch uint64) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], pos.gen)
	le.PutUint64(b[8:], uint64(pos.off))
	le.PutUint64(b[16:], uint64(recs))
	le.PutUint64(b[24:], epoch)
}

func decodeAck(b []byte) (pos replPos, recs int64, epoch uint64) {
	le := binary.LittleEndian
	return replPos{gen: le.Uint64(b[0:]), off: int64(le.Uint64(b[8:]))}, int64(le.Uint64(b[16:])), le.Uint64(b[24:])
}

// parseFrames decodes and validates a replication body's frames. Every
// frame must be whole and checksum-clean — the body came over TCP from
// data the primary read back from its own journal, so any damage means
// a bug, not line noise — and every record must parse and validate,
// because the follower is about to make them durable.
func parseFrames(data []byte) ([]*scenario.SnapshotRecord, error) {
	var out []*scenario.SnapshotRecord
	off := 0
	for off < len(data) {
		if off+frameHeaderLen > len(data) {
			return nil, fmt.Errorf("serve: replication body torn at offset %d", off)
		}
		size := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if size == 0 || size > maxRecordBytes {
			return nil, fmt.Errorf("serve: replication body offset %d: implausible record length %d", off, size)
		}
		if off+frameHeaderLen+int(size) > len(data) {
			return nil, fmt.Errorf("serve: replication body torn at offset %d", off)
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+int(size)]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("serve: replication body offset %d: checksum mismatch", off)
		}
		rec := new(scenario.SnapshotRecord)
		if err := scenario.DecodeSnapshotRecord(payload, rec); err != nil {
			return nil, fmt.Errorf("serve: replication body offset %d: %w", off, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("serve: replication body offset %d: %w", off, err)
		}
		out = append(out, rec)
		off += frameHeaderLen + int(size)
	}
	return out, nil
}

// replRetry is the follower's backoff before reopening a stream that
// failed, including after the primary fell silent past replDeadline. A
// variable only so tests can shorten it.
var replRetry = 500 * time.Millisecond

// follower is the follower role's replication client: it streams the
// primary's journal into its own state dir (same durability guarantees
// as the primary's, so promotion is booting the primary role from it)
// and keeps the fold map that degraded answers are served from.
type follower struct {
	primary string
	// id names this follower in the primary's follower table: hostname
	// plus the absolute state dir, which no two live followers share.
	id      string
	persist *persister

	// smu guards the applied in-memory state (the degraded serving
	// source) and the replay shadow.
	smu    sync.RWMutex
	state  map[string]*scenario.SessionState
	shadow seqShadow

	// cm guards the replication cursor — the primary-coordinate
	// position the next ack (or handshake) reports, advanced only after
	// the bytes before it are fsync'd locally.
	cm     sync.Mutex
	cursor replPos

	// buf is the message body buffer the stream loop reuses.
	buf []byte

	// ctx ends with halt, which also closes the open stream.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	fenced  atomic.Bool
	em      sync.Mutex
	lastErr error

	records      atomic.Uint64
	chunks       atomic.Uint64
	resets       atomic.Uint64
	streamErrors atomic.Uint64
}

// newFollower opens the follower's state dir, replaying whatever a
// previous incarnation already replicated; New starts its run loop.
func newFollower(primary, dir string) (*follower, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	host, _ := os.Hostname()
	p, state, shadow, err := openPersister(dir, 0, false)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The cursor deliberately starts at zero, not at the local journal
	// tail: local offsets are this incarnation's coordinates, not the
	// primary's. The first message is therefore a reset transfer — which
	// is also what safely discards a divergent suffix when a fenced
	// ex-primary rejoins as a follower on its old state dir.
	return &follower{
		primary: primary,
		id:      host + ":" + abs,
		persist: p,
		state:   state,
		shadow:  shadow,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}, nil
}

// run is the stream loop: stream until the stream fails, back off,
// reopen; stop for good when fenced or halted.
func (f *follower) run() {
	defer close(f.done)
	for {
		err := f.stream()
		if f.ctx.Err() != nil {
			return
		}
		f.setErr(err)
		if errors.Is(err, ErrFenced) {
			// A fenced stream never becomes followable again; keep serving
			// degraded answers and wait for an operator (or promotion).
			f.fenced.Store(true)
			return
		}
		f.streamErrors.Add(1)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(replRetry):
		}
	}
}

func (f *follower) setErr(err error) {
	f.em.Lock()
	f.lastErr = err
	f.em.Unlock()
}

// err returns the most recent replication error (nil while healthy); a
// message applied (or a heartbeat heard) since clears it.
func (f *follower) err() error {
	f.em.Lock()
	defer f.em.Unlock()
	return f.lastErr
}

// stream opens one replication stream from the cursor and applies and
// acks its messages until it fails; the error says why (never nil).
func (f *follower) stream() error {
	f.cm.Lock()
	pos := f.cursor
	f.cm.Unlock()
	u := fmt.Sprintf("%s/v1/replicate?gen=%d&off=%d&recs=%d&epoch=%d&id=%s",
		strings.TrimRight(f.primary, "/"), pos.gen, pos.off, f.persist.recordsInGen(),
		f.persist.maxEpoch.Load(), url.QueryEscape(f.id))
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", replProto)
	// The stream is long-lived and keeps its own heartbeat deadline, so
	// the client has no overall timeout.
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("serve: replication handshake: %w", err)
	}
	conn, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			// The primary saw our epoch and called itself fenced — the
			// mirror-image of apply's check (we'd only carry a higher epoch
			// if we had already seen a newer primary).
			return ErrFenced
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("serve: replication handshake: primary answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	defer conn.Close()
	// halt closes the connection, unblocking a read or write.
	defer context.AfterFunc(f.ctx, func() { conn.Close() })()

	// A live primary sends something at least every heartbeat; a read
	// blocked past the deadline means it fell silent, and closing the
	// connection unblocks the read.
	deadline := replDeadline()
	var silent atomic.Bool
	watchdog := time.AfterFunc(deadline, func() {
		silent.Store(true)
		conn.Close()
	})
	defer watchdog.Stop()
	fail := func(op string, err error) error {
		if silent.Load() {
			return fmt.Errorf("serve: replication stream: no message from the primary within %v", deadline)
		}
		return fmt.Errorf("serve: replication %s: %w", op, err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [replMsgHeaderLen]byte
	var ack [replAckLen]byte
	for {
		watchdog.Reset(deadline)
		m, body, err := readReplMsg(br, &hdr, f.buf)
		watchdog.Stop()
		if cap(body) <= maxReplChunk {
			f.buf = body[:0]
		}
		if err != nil {
			return fail("stream", err)
		}
		if err := f.apply(m, body); err != nil {
			return err
		}
		f.cm.Lock()
		pos = f.cursor
		f.cm.Unlock()
		putAck(ack[:], pos, f.persist.recordsInGen(), f.persist.maxEpoch.Load())
		if _, err := conn.Write(ack[:]); err != nil {
			return fail("ack", err)
		}
	}
}

// apply checks one message's epoch, then applies it. A heartbeat has
// nothing to apply but proves the primary is alive and current.
func (f *follower) apply(m replMsg, body []byte) error {
	if known := f.persist.maxEpoch.Load(); m.epoch < known {
		return fmt.Errorf("%w (primary epoch %d, known epoch %d)", ErrFenced, m.epoch, known)
	}
	if m.kind == msgHeartbeat {
		f.setErr(nil)
		return nil
	}
	if err := fpReplApply.Hit(); err != nil {
		return fmt.Errorf("serve: replication apply: %w", err)
	}
	if m.kind == msgReset {
		return f.applyReset(body[:m.snapLen], body[m.snapLen:], m.next, m.epoch)
	}
	return f.applyChunk(body, m.next, m.epoch)
}

// applyChunk validates, persists, then folds one journal chunk. That
// order is the ack invariant: the cursor (and so the position the ack
// reports) only moves after appendRaw's fsync returned.
func (f *follower) applyChunk(body []byte, next replPos, repoch uint64) error {
	recs, err := parseFrames(body)
	if err != nil {
		return err
	}
	if err := f.persist.appendRaw(body, len(recs)); err != nil {
		// appendRaw truncated back; the reopened stream resends the chunk.
		return err
	}
	f.fold(recs, repoch)
	f.advance(next)
	f.chunks.Add(1)
	f.records.Add(uint64(len(recs)))
	f.setErr(nil)
	return nil
}

// applyReset replaces the follower's entire state with a transferred
// snapshot + journal.
func (f *follower) applyReset(snap, jour []byte, next replPos, repoch uint64) error {
	snapRecs, err := parseFrames(snap)
	if err != nil {
		return fmt.Errorf("serve: reset transfer snapshot: %w", err)
	}
	jourRecs, err := parseFrames(jour)
	if err != nil {
		return fmt.Errorf("serve: reset transfer journal: %w", err)
	}
	if err := f.persist.resetTo(snap, jour, int64(len(jourRecs))); err != nil {
		return err
	}
	// Rebuild the in-memory state from scratch: a reset discards any
	// divergent records the old state was built from.
	state := make(map[string]*scenario.SessionState)
	shadow := make(seqShadow)
	maxEpoch := repoch
	for _, rec := range append(snapRecs, jourRecs...) {
		applyRecord(state, shadow, rec)
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
		if rec.Seq > f.persist.maxSeq.Load() {
			f.persist.maxSeq.Store(rec.Seq)
		}
	}
	f.smu.Lock()
	f.state, f.shadow = state, shadow
	f.smu.Unlock()
	if maxEpoch > f.persist.maxEpoch.Load() {
		f.persist.maxEpoch.Store(maxEpoch)
	}
	f.advance(next)
	f.resets.Add(1)
	f.records.Add(uint64(len(snapRecs) + len(jourRecs)))
	f.setErr(nil)
	return nil
}

// fold applies persisted records to the in-memory state.
func (f *follower) fold(recs []*scenario.SnapshotRecord, repoch uint64) {
	maxEpoch := repoch
	f.smu.Lock()
	for _, rec := range recs {
		applyRecord(f.state, f.shadow, rec)
		if rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
		if rec.Seq > f.persist.maxSeq.Load() {
			f.persist.maxSeq.Store(rec.Seq)
		}
	}
	f.smu.Unlock()
	if maxEpoch > f.persist.maxEpoch.Load() {
		f.persist.maxEpoch.Store(maxEpoch)
	}
}

func (f *follower) advance(next replPos) {
	f.cm.Lock()
	f.cursor = next
	f.cm.Unlock()
}

// sessions returns the replicated live session count.
func (f *follower) sessions() int {
	f.smu.RLock()
	defer f.smu.RUnlock()
	return len(f.state)
}

// halt stops the stream loop — closing the open stream so a blocked
// read returns — and closes the state dir, whose files stay as the
// stream left them. Idempotent.
func (f *follower) halt() {
	f.cancel()
	<-f.done
	f.persist.close()
}

// metrics snapshots the follower's counters.
func (f *follower) metrics() *FollowMetrics {
	m := &FollowMetrics{
		Primary:        f.primary,
		Epoch:          f.persist.maxEpoch.Load(),
		Fenced:         f.fenced.Load(),
		RecordsApplied: f.records.Load(),
		ChunksApplied:  f.chunks.Load(),
		Resets:         f.resets.Load(),
		StreamErrors:   f.streamErrors.Load(),
	}
	if err := f.err(); err != nil {
		m.LastError = err.Error()
	}
	return m
}

// trouble reports what degrades the follower's /healthz: a fenced or a
// stalled stream.
func (f *follower) trouble() []string {
	if f.fenced.Load() {
		return []string{"replication fenced: primary is a stale failover survivor"}
	}
	if err := f.err(); err != nil {
		return []string{fmt.Sprintf("replication stalled: %v", err)}
	}
	return nil
}

// lastState returns a replicated session's state, or nil.
func (f *follower) lastState(id string) *scenario.SessionState {
	f.smu.RLock()
	defer f.smu.RUnlock()
	return f.state[id]
}
