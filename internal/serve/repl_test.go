package serve

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmc/internal/scenario"
)

// shortHeartbeat shortens the stream heartbeat (and with it the
// follower's read deadline and the primary's stale-follower window) for
// one test. Call it before starting any server or follower.
func shortHeartbeat(t *testing.T, d time.Duration) {
	t.Helper()
	old := replHeartbeat
	replHeartbeat = d
	t.Cleanup(func() { replHeartbeat = old })
}

// TestReplicationOneStreamPerFollower: N sync-mode writes travel over
// the one stream the follower opened — exactly one handshake — and the
// follower ends exactly at the primary's journal tail. A transport that
// quietly fell back to a round trip per record would open more.
func TestReplicationOneStreamPerFollower(t *testing.T) {
	srv, err := New(Config{Shards: 1, StateDir: t.TempDir(), ReplAck: ReplAckSync, ReplAckTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	fol := newTestFollower(t, Config{Shards: 1}, ts.URL, t.TempDir())
	defer func() { fol.Close(); ts.Close(); srv.Close() }()

	rng := rand.New(rand.NewPCG(16, 1))
	wire := testNetwork(rng, 3)
	const n = 40
	for i := 0; i < n; i++ {
		wire = driftWire(rng, wire, 0.05)
		solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: wire}, SessionID: "s"})
	}
	m := srv.Metrics().Replication
	if m.StreamsOpened != 1 {
		t.Errorf("%d sync writes opened %d replication streams, want 1", n, m.StreamsOpened)
	}
	if m.ChunksServed == 0 || m.ChunksServed > n {
		t.Errorf("chunks served %d for %d writes, want 1..%d", m.ChunksServed, n, n)
	}
	fol.fol.cm.Lock()
	got := fol.fol.cursor
	fol.fol.cm.Unlock()
	if tail := srv.persist.cursor(); got != tail {
		t.Errorf("follower cursor %+v, primary tail %+v", got, tail)
	}
}

// TestHeartbeatKeepsIdleFollower: a follower with nothing to replicate
// stays in the primary's follower table well past the stale-follower
// window, on the stream it opened, because heartbeats keep it acking.
func TestHeartbeatKeepsIdleFollower(t *testing.T) {
	shortHeartbeat(t, 20*time.Millisecond)
	srv, err := New(Config{Shards: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	fol := newTestFollower(t, Config{Shards: 1}, ts.URL, t.TempDir())
	defer func() { fol.Close(); ts.Close(); srv.Close() }()

	rng := rand.New(rand.NewPCG(16, 2))
	solveOK(t, ts.URL, scenario.SolveRequest{Solve: scenario.Solve{Network: testNetwork(rng, 2)}, SessionID: "s"})
	waitSynced(t, srv, fol)

	time.Sleep(3 * staleFollowerAfter())
	m := srv.Metrics().Replication
	if len(m.Followers) != 1 {
		t.Fatalf("idle follower pruned from the table after %v: %+v", 3*staleFollowerAfter(), m.Followers)
	}
	if lim := float64(staleFollowerAfter()) / float64(time.Millisecond); m.Followers[0].LastSeenMs > lim {
		t.Errorf("idle follower last seen %.1f ms ago, past the %.0f ms stale window", m.Followers[0].LastSeenMs, lim)
	}
	if m.StreamsOpened != 1 {
		t.Errorf("idle stream reopened: %d streams", m.StreamsOpened)
	}
	if err := fol.fol.err(); err != nil {
		t.Errorf("idle follower reports an error: %v", err)
	}
}

// TestFollowerReconnectsAfterSilentPrimary: a "primary" that accepts
// the upgrade and then never sends a byte must not hold the follower
// forever. Past its read deadline the follower reports the silence and
// opens a new stream.
func TestFollowerReconnectsAfterSilentPrimary(t *testing.T) {
	shortHeartbeat(t, 20*time.Millisecond)
	quit := make(chan struct{})
	var handshakes atomic.Int32
	var stamps [2]atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != replProto {
			http.Error(w, "want an upgrade", http.StatusUpgradeRequired)
			return
		}
		if i := handshakes.Add(1); i <= 2 {
			stamps[i-1].Store(time.Now().UnixNano())
		}
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: " + replProto + "\r\nConnection: Upgrade\r\n\r\n"))
		<-quit
	}))
	fol := newTestFollower(t, Config{Shards: 1}, ts.URL, t.TempDir())
	defer func() { close(quit); fol.Close(); ts.Close() }()

	deadline := time.Now().Add(10 * time.Second)
	for handshakes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reopened its stream (handshakes %d, err %v)", handshakes.Load(), fol.fol.err())
		}
		time.Sleep(time.Millisecond)
	}
	gap := time.Duration(stamps[1].Load() - stamps[0].Load())
	if gap < replDeadline() {
		t.Errorf("follower gave up on the silent primary after %v, before its %v deadline", gap, replDeadline())
	}
	if gap > 20*replDeadline() {
		t.Errorf("follower took %v to reopen, deadline %v", gap, replDeadline())
	}
	if err := fol.fol.err(); err == nil || !strings.Contains(err.Error(), "no message from the primary") {
		t.Errorf("follower error after a silent primary = %v, want the missed deadline", err)
	}
}

// TestReplicateRequiresUpgrade: a plain GET /v1/replicate (no upgrade
// request) answers 426 and names the protocol to upgrade to.
func TestReplicateRequiresUpgrade(t *testing.T) {
	srv, err := New(Config{Shards: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	resp, err := http.Get(ts.URL + "/v1/replicate?gen=0&off=0&epoch=0&id=plain")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAllBody(resp)
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("plain replicate GET: status %d (want 426): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Upgrade"); got != replProto {
		t.Errorf("426 names Upgrade %q, want %q", got, replProto)
	}
	if n := srv.Metrics().Replication.StreamsOpened; n != 0 {
		t.Errorf("a refused handshake counted %d streams", n)
	}
}

// encodeReplMsg builds one stream message as the primary sends it.
func encodeReplMsg(kind uint32, next replPos, epoch uint64, snap []byte, body ...[]byte) []byte {
	var b bytes.Buffer
	payload := append(append([]byte(nil), snap...), bytes.Join(body, nil)...)
	var hdr [replMsgHeaderLen]byte
	replMsg{kind: kind, snapLen: len(snap), bodyLen: len(payload), next: next, epoch: epoch}.put(hdr[:])
	b.Write(hdr[:])
	b.Write(payload)
	return b.Bytes()
}

// fileSize is a file's size, or -1 when it does not exist.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return -1
	}
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// FuzzReplStream feeds torn, garbled and oversized messages to the
// follower's stream reader and apply path. Whatever arrives, the
// follower must not panic, must refuse a body over its kind's cap
// without allocating for it, must never buffer much more than the
// bytes that actually arrived, and must leave its journal and snapshot
// untouched by any message it rejects: a message reaches disk only when
// every frame in it parses and validates.
func FuzzReplStream(f *testing.F) {
	rng := rand.New(rand.NewPCG(7, 7))
	var frames [][]byte
	for i := 0; i < 3; i++ {
		rec := &scenario.SnapshotRecord{
			Version: scenario.SnapshotVersion,
			Seq:     uint64(i + 1),
			Kind:    scenario.RecordSession,
			Session: &scenario.SessionState{ID: "s", Solve: scenario.Solve{Network: testNetwork(rng, 2)}},
		}
		fr, err := frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, fr)
	}
	chunk := encodeReplMsg(msgChunk, replPos{gen: 5, off: int64(len(frames[0]) + len(frames[1]))}, 0, nil, frames[0], frames[1])
	reset := encodeReplMsg(msgReset, replPos{gen: 6, off: int64(len(frames[2]))}, 0, frames[0], frames[2])
	heartbeat := encodeReplMsg(msgHeartbeat, replPos{gen: 6}, 0, nil)
	garbled := bytes.Clone(chunk)
	garbled[replMsgHeaderLen+frameHeaderLen+3] ^= 0x40
	oversized := bytes.Clone(heartbeat)
	oversized[0] = byte(msgChunk)
	oversized[8], oversized[9], oversized[10], oversized[11] = 0xff, 0xff, 0xff, 0x7f
	f.Add(chunk)
	f.Add(append(bytes.Clone(reset), chunk...))
	f.Add(append(bytes.Clone(heartbeat), chunk...))
	f.Add(chunk[:len(chunk)-5])
	f.Add(garbled)
	f.Add(oversized)
	f.Add(append(bytes.Clone(chunk), reset[:replMsgHeaderLen+2]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p, state, shadow, err := openPersister(dir, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		fol := &follower{persist: p, state: state, shadow: shadow}
		jpath, spath := filepath.Join(dir, journalFile), filepath.Join(dir, snapshotFile)
		br := bufio.NewReader(bytes.NewReader(data))
		var hdr [replMsgHeaderLen]byte
		for {
			jBytes, jFile, sFile := p.journalBytes.Load(), fileSize(t, jpath), fileSize(t, spath)
			m, body, err := readReplMsg(br, &hdr, nil)
			if err != nil {
				if errors.Is(err, errReplBodyTooLarge) && cap(body) != 0 {
					t.Fatalf("oversized body allocated %d bytes before refusing: %v", cap(body), err)
				}
				if cap(body) > len(data)+maxReplChunk {
					t.Fatalf("reader buffered %d bytes from a %d-byte stream", cap(body), len(data))
				}
				return
			}
			if err := fol.apply(m, body); err != nil {
				if p.journalBytes.Load() != jBytes || fileSize(t, jpath) != jFile || fileSize(t, spath) != sFile {
					t.Fatalf("rejected message (%v) changed the state dir: journal %d->%d bytes (file %d->%d), snapshot %d->%d",
						err, jBytes, p.journalBytes.Load(), jFile, fileSize(t, jpath), sFile, fileSize(t, spath))
				}
				return
			}
		}
	})
}
