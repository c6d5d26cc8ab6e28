// Replication: streaming the durability journal to hot-standby
// followers, so an acknowledged session state survives not just a
// process crash (PR 9's journal) but the loss of the node.
//
// Topology: one full-duplex stream per follower. A follower opens it
// with GET /v1/replicate?gen&off&recs&epoch&id from its durable
// journal position (gen, off), asking to upgrade to dmc-repl/1; the
// primary answers 101 Switching Protocols, takes the connection over,
// and from then on sends messages: a chunk of whole CRC32 frames, a
// full snapshot+journal reset transfer when the position is not
// addressable in the current journal incarnation (the follower is new,
// diverged, or the primary compacted), or an empty heartbeat after
// replHeartbeat of idle time. Each message is a fixed little-endian
// header (replMsgHeaderLen) followed by the same framed bytes the
// journal holds. The follower answers every message with a 32-byte ack
// carrying its new cursor, written only after the message is fsync'd
// into its own journal and folded, so the primary reading "ack at
// (g, o)" knows everything before (g, o) is durable on that follower.
//
// One message is in flight per stream: the primary reads the journal
// for the next message only after the previous one's ack, so
// everything appended meanwhile rides in one chunk — the follower's
// fsync batches itself. The sender otherwise sleeps until the journal
// changes. A follower that hears nothing for replDeadline (a few
// heartbeats) drops the stream and reconnects after RetryInterval; a
// primary prunes a follower whose acks stopped for staleFollowerAfter.
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
// validates a message before touching its own journal, and its
// connection mutex only guards the handle that halt closes.
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
// Registered only when persistence is on.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
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

// FollowerConfig configures a hot-standby Follower.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. http://10.0.0.1:8080).
	Primary string
	// StateDir is the follower's own state dir; the replicated stream is
	// journaled here with the same format and guarantees as the
	// primary's, so promotion is just booting a Server from it.
	StateDir string
	// ID names this follower in the primary's follower table and
	// metrics. Followers of one primary need distinct IDs: two that
	// share one also share a table entry, and their lag and health
	// overwrite each other. Empty defaults to "follower".
	ID string
	// RetryInterval is the backoff before reopening the stream after it
	// failed, including after the primary fell silent past the
	// heartbeat deadline. Zero means 500ms.
	RetryInterval time.Duration
	// Client overrides the HTTP client that opens the stream (tests).
	// Nil means a dedicated client with no overall timeout: the stream
	// is long-lived and keeps its own heartbeat deadline.
	Client *http.Client
	// OnPromote, when set, is invoked by the follower's POST /v1/promote
	// admin endpoint. The callback owns the actual promotion (typically
	// Follower.Promote plus swapping HTTP handlers) so the process
	// embedding the follower controls the order.
	OnPromote func() error
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.ID == "" {
		c.ID = "follower"
	}
	if c.RetryInterval == 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Follower is a hot standby: it streams the primary's journal into its
// own state dir (same durability guarantees) and serves degraded
// read-only answers from the replicated last-good results. Promote
// turns it into a full Server with a bumped fencing epoch.
type Follower struct {
	cfg     FollowerConfig
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

	// connMu guards the open stream, so halt can close it and unblock
	// the stream's read; halted refuses a stream opened after that.
	connMu sync.Mutex
	conn   io.Closer
	halted bool

	// buf is the message body buffer the stream loop reuses.
	buf []byte

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	fenced  atomic.Bool
	em      sync.Mutex
	lastErr error

	records    atomic.Uint64
	chunks     atomic.Uint64
	resets     atomic.Uint64
	pollErrors atomic.Uint64
}

// NewFollower opens the follower's state dir (replaying whatever a
// previous incarnation already replicated) and starts the stream loop.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	cfg = cfg.withDefaults()
	if cfg.Primary == "" || cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: follower requires a primary URL and a state dir")
	}
	p, state, shadow, err := openPersister(cfg.StateDir, 0, false)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg:     cfg,
		persist: p,
		state:   state,
		shadow:  shadow,
		ctx:     ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// The cursor deliberately starts at zero, not at the local journal
	// tail: local offsets are this incarnation's coordinates, not the
	// primary's. The first message is therefore a reset transfer — which
	// is also what safely discards a divergent suffix when a fenced
	// ex-primary rejoins as a follower on its old state dir.
	go f.run()
	return f, nil
}

// run is the stream loop: stream until the stream fails, back off,
// reopen; stop for good when fenced.
func (f *Follower) run() {
	defer close(f.done)
	for {
		err := f.stream()
		select {
		case <-f.stop:
			return
		default:
		}
		f.setErr(err)
		if errors.Is(err, ErrFenced) {
			// A fenced stream never becomes followable again; keep serving
			// degraded answers and wait for an operator (or promotion).
			f.fenced.Store(true)
			return
		}
		f.pollErrors.Add(1)
		select {
		case <-f.stop:
			return
		case <-time.After(f.cfg.RetryInterval):
		}
	}
}

func (f *Follower) setErr(err error) {
	f.em.Lock()
	f.lastErr = err
	f.em.Unlock()
}

// Err returns the most recent replication error (nil while healthy); a
// message applied (or a heartbeat heard) since clears it.
func (f *Follower) Err() error {
	f.em.Lock()
	defer f.em.Unlock()
	return f.lastErr
}

// Fenced reports whether the stream was fenced (the primary is a stale
// failover survivor) and the stream loop has stopped.
func (f *Follower) Fenced() bool { return f.fenced.Load() }

// stream opens one replication stream from the cursor and applies and
// acks its messages until it fails; the error says why (never nil).
func (f *Follower) stream() error {
	f.cm.Lock()
	pos := f.cursor
	f.cm.Unlock()
	u := fmt.Sprintf("%s/v1/replicate?gen=%d&off=%d&recs=%d&epoch=%d&id=%s",
		strings.TrimRight(f.cfg.Primary, "/"), pos.gen, pos.off, f.persist.recordsInGen(),
		f.persist.maxEpoch.Load(), url.QueryEscape(f.cfg.ID))
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", replProto)
	resp, err := f.cfg.Client.Do(req)
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
	if !f.attach(conn) {
		conn.Close()
		return errors.New("serve: follower closed")
	}
	defer f.detach(conn)

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

// attach publishes the open stream so halt can close it; false means
// halt already ran and the stream must not start.
func (f *Follower) attach(c io.Closer) bool {
	f.connMu.Lock()
	defer f.connMu.Unlock()
	if f.halted {
		return false
	}
	f.conn = c
	return true
}

func (f *Follower) detach(c io.Closer) {
	f.connMu.Lock()
	f.conn = nil
	f.connMu.Unlock()
	c.Close()
}

// apply checks one message's epoch, then applies it. A heartbeat has
// nothing to apply but proves the primary is alive and current.
func (f *Follower) apply(m replMsg, body []byte) error {
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
func (f *Follower) applyChunk(body []byte, next replPos, repoch uint64) error {
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
func (f *Follower) applyReset(snap, jour []byte, next replPos, repoch uint64) error {
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
func (f *Follower) fold(recs []*scenario.SnapshotRecord, repoch uint64) {
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

func (f *Follower) advance(next replPos) {
	f.cm.Lock()
	f.cursor = next
	f.cm.Unlock()
}

// Sessions returns the replicated live session count.
func (f *Follower) Sessions() int {
	f.smu.RLock()
	defer f.smu.RUnlock()
	return len(f.state)
}

// Epoch returns the highest fencing epoch this follower has seen.
func (f *Follower) Epoch() uint64 { return f.persist.maxEpoch.Load() }

// halt stops the stream loop — closing the open stream so a blocked
// read returns — and closes the state dir. Idempotent.
func (f *Follower) halt() {
	f.once.Do(func() {
		f.connMu.Lock()
		f.halted = true
		c := f.conn
		f.connMu.Unlock()
		close(f.stop)
		f.cancel()
		if c != nil {
			c.Close()
		}
	})
	<-f.done
	f.persist.close()
}

// Close stops the follower. The replicated state dir stays on disk,
// ready for a later NewFollower or promotion via New.
func (f *Follower) Close() { f.halt() }

// Promote turns the standby into the primary: the stream loop stops, the
// state dir closes, and a full Server boots from it with Config.Promote
// set — replaying everything replicated, bumping the fencing epoch past
// every epoch in the stream, and durably stamping the bump before
// serving. cfg's replication and durability fields apply to the new
// primary; StateDir and Promote are overridden. On error the follower
// is already stopped — failover must be retried, not resumed.
func (f *Follower) Promote(cfg Config) (*Server, error) {
	f.halt()
	cfg.StateDir = f.cfg.StateDir
	cfg.Promote = true
	return New(cfg)
}

// FollowerMetrics is the follower's /metrics document.
type FollowerMetrics struct {
	Primary  string `json:"primary"`
	Sessions int    `json:"sessions"`
	// Epoch is the highest fencing epoch seen; Fenced reports that the
	// stream was rejected because the primary's epoch fell behind it.
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced"`
	// RecordsApplied counts records made durable locally (chunks and
	// reset transfers both); Resets counts full snapshot transfers;
	// PollErrors counts streams that failed (each one is reopened after
	// RetryInterval).
	RecordsApplied uint64 `json:"records_applied"`
	ChunksApplied  uint64 `json:"chunks_applied"`
	Resets         uint64 `json:"resets"`
	PollErrors     uint64 `json:"poll_errors"`
	JournalBytes   int64  `json:"journal_bytes"`
	LastError      string `json:"last_error,omitempty"`
}

// Metrics snapshots the follower's counters.
func (f *Follower) Metrics() FollowerMetrics {
	m := FollowerMetrics{
		Primary:        f.cfg.Primary,
		Sessions:       f.Sessions(),
		Epoch:          f.Epoch(),
		Fenced:         f.fenced.Load(),
		RecordsApplied: f.records.Load(),
		ChunksApplied:  f.chunks.Load(),
		Resets:         f.resets.Load(),
		PollErrors:     f.pollErrors.Load(),
		JournalBytes:   f.persist.journalBytes.Load(),
	}
	if err := f.Err(); err != nil {
		m.LastError = err.Error()
	}
	return m
}

// Handler returns the follower's read-only HTTP API: degraded solve
// answers from replicated last-good results, metrics, health, and the
// promotion admin endpoint. Mutating endpoints answer 503 — a standby
// accepting writes would fork the fleet's state.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", f.handleSolve)
	mux.HandleFunc("POST /v1/observe", f.handleReadOnly)
	mux.HandleFunc("DELETE /v1/session/{id}", f.handleReadOnly)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Metrics())
	})
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("POST /v1/promote", f.handlePromote)
	return mux
}

func (f *Follower) handleReadOnly(w http.ResponseWriter, r *http.Request) {
	writeErr(w, http.StatusServiceUnavailable, "serve: read-only follower; write to the primary")
}

// handleSolve serves the degraded path only: a known session's
// replicated last-good strategy, marked degraded. A follower has no
// solver fleet — anything it cannot answer from replicated state is the
// primary's job.
func (f *Follower) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req scenario.SolveRequest
	if !decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.SessionID == "" {
		writeErr(w, http.StatusServiceUnavailable, "serve: read-only follower cannot run one-shot solves; write to the primary")
		return
	}
	f.smu.RLock()
	st := f.state[req.SessionID]
	f.smu.RUnlock()
	if st == nil || st.LastGood == nil {
		writeErr(w, http.StatusServiceUnavailable, "serve: follower has no replicated answer for session %q", req.SessionID)
		return
	}
	writeJSON(w, http.StatusOK, scenario.SolveResponse{
		SessionID: req.SessionID,
		Resolved:  false,
		Result:    st.LastGood,
		Degraded:  true,
	})
}

func (f *Follower) handleHealth(w http.ResponseWriter, r *http.Request) {
	var trouble []string
	if f.fenced.Load() {
		trouble = append(trouble, "replication fenced: primary is a stale failover survivor")
	} else if err := f.Err(); err != nil {
		trouble = append(trouble, fmt.Sprintf("replication stalled: %v", err))
	}
	body := map[string]any{"status": "ok", "role": "follower", "epoch": f.Epoch(), "sessions": f.Sessions()}
	if len(trouble) > 0 {
		body["status"] = "degraded: " + strings.Join(trouble, "; ")
	}
	writeJSON(w, http.StatusOK, body)
}

// handlePromote is the failover admin endpoint. The embedding process
// (cmd/dmcd) supplies OnPromote, which runs Follower.Promote and swaps
// the HTTP handlers; without one the endpoint reports the follower
// cannot self-promote.
func (f *Follower) handlePromote(w http.ResponseWriter, r *http.Request) {
	if f.cfg.OnPromote == nil {
		writeErr(w, http.StatusNotImplemented, "serve: this follower has no promotion hook; restart it with -promote instead")
		return
	}
	if err := f.cfg.OnPromote(); err != nil {
		writeErr(w, http.StatusInternalServerError, "serve: promotion failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "promoted"})
}
