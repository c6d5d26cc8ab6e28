package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dmc/internal/serve"
)

// syncBuffer is a goroutine-safe strings buffer for run's stdout.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

const tableIIISolve = `{"network": {
	"rate_mbps": 90, "lifetime_ms": 800,
	"paths": [
		{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
		{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
	]
}, "session_id": "boot"}`

// bootDaemon starts run in the background and waits for the listen
// line, returning the daemon's base URL and its completion channel.
func bootDaemon(t *testing.T, ctx context.Context, out *syncBuffer, args ...string) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-shards", "1"}, args...), out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "dmcd: listening on "); ok {
				return "http://" + strings.TrimSpace(rest), done
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port,
// solves the paper's Table III scenario over HTTP, and checks a context
// cancellation shuts it down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	base, done := bootDaemon(t, ctx, &out)

	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(tableIIISolve))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve status %d: %s", resp.StatusCode, body)
	}
	// Table III optimum: Q = 93.33%.
	if !strings.Contains(body.String(), `"quality":0.93333`) {
		t.Errorf("solve response missing Table III quality: %s", body)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error on shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown log line; output: %q", out.String())
	}
}

// TestRunRestoresState is the operator-facing durability contract: a
// daemon run with -state-dir, shut down gracefully, and restarted over
// the same dir picks its sessions back up — an estimator session
// created before the restart answers /v1/observe with 200 afterwards,
// not 409 unknown-session.
func TestRunRestoresState(t *testing.T) {
	dir := t.TempDir()
	const estSolve = `{"network": {
		"rate_mbps": 90, "lifetime_ms": 800,
		"paths": [
			{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
			{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
		]
	}, "session_id": "durable", "estimator": true}`

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	base, done := bootDaemon(t, ctx, &out, "-state-dir", dir)
	if !strings.Contains(out.String(), "dmcd: durability on ("+dir+"): restored 0 sessions") {
		t.Errorf("missing durability boot line; output: %q", out.String())
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(estSolve))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve status %d", resp.StatusCode)
	}
	obs := `{"session_id": "durable", "paths": [
		{"path": 0, "sent": 100, "lost": 4, "rtt_ms": [450.5]},
		{"path": 1, "sent": 100, "lost": 0, "rtt_ms": [150.2]}
	]}`
	resp, err = http.Post(base+"/v1/observe", "application/json", strings.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/observe status %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first run failed on shutdown: %v", err)
	}

	// Second life: same state dir, fresh process.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncBuffer
	base2, done2 := bootDaemon(t, ctx2, &out2, "-state-dir", dir)
	if !strings.Contains(out2.String(), "restored 1 sessions") {
		t.Errorf("restart did not report the restored session; output: %q", out2.String())
	}
	resp, err = http.Post(base2+"/v1/observe", "application/json", strings.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe after restart: status %d (session not restored?): %s", resp.StatusCode, body)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second run failed on shutdown: %v", err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "999.999.999.999:1"}, &out); err == nil {
		t.Error("unlistenable address accepted")
	}
	if err := run(context.Background(), []string{"-follow", "http://x"}, &out); err == nil || !strings.Contains(err.Error(), "-state-dir") {
		t.Errorf("-follow without -state-dir accepted (err: %v)", err)
	}
	if err := run(context.Background(), []string{"-follow", "http://x", "-state-dir", t.TempDir(), "-promote"}, &out); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-follow with -promote accepted (err: %v)", err)
	}
	if err := run(context.Background(), []string{"-repl-ack", "bogus", "-state-dir", t.TempDir()}, &out); err == nil {
		t.Error("bogus -repl-ack accepted")
	}
}

// TestRunFailover is the operator-facing failover drill: a primary and
// a -follow standby as two in-process daemons, a session replicated
// across, promotion via the admin endpoint turning the standby into the
// primary in place, and the promoted daemon owning writes.
func TestRunFailover(t *testing.T) {
	primDir, folDir := t.TempDir(), t.TempDir()

	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	var pout syncBuffer
	pbase, pdone := bootDaemon(t, pctx, &pout, "-state-dir", primDir)

	const estSolve = `{"network": {
		"rate_mbps": 90, "lifetime_ms": 800,
		"paths": [
			{"name": "path1", "bandwidth_mbps": 80, "delay_ms": 450, "loss": 0.2},
			{"name": "path2", "bandwidth_mbps": 20, "delay_ms": 150}
		]
	}, "session_id": "durable", "estimator": true}`
	resp, err := http.Post(pbase+"/v1/solve", "application/json", strings.NewReader(estSolve))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/solve status %d", resp.StatusCode)
	}

	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	var fout syncBuffer
	fbase, fdone := bootDaemon(t, fctx, &fout, "-state-dir", folDir, "-follow", pbase)
	if !strings.Contains(fout.String(), "dmcd: follower at epoch 0") {
		t.Errorf("missing follower boot line; output: %q", fout.String())
	}

	// The standby serves the replicated session degraded once the stream
	// delivers it (its first poll takes a snapshot reset transfer).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(fbase+"/v1/solve", "application/json", strings.NewReader(estSolve))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !strings.Contains(body.String(), `"degraded":true`) {
				t.Fatalf("standby answer not marked degraded: %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never replicated the session; last status %d: %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And it refuses writes while a standby.
	resp, err = http.Post(fbase+"/v1/observe", "application/json",
		strings.NewReader(`{"session_id": "durable", "paths": [{"path": 0, "sent": 10, "lost": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby observe: status %d, want 503", resp.StatusCode)
	}

	// The primary dies; the admin endpoint promotes the standby in
	// place — same process, same listener, now the full primary API.
	pcancel()
	if err := <-pdone; err != nil {
		t.Fatalf("primary run failed on shutdown: %v", err)
	}
	// The answer carries the new epoch, one past the primary's 0, and
	// /healthz on the same listener reports the new role.
	var promoted struct {
		Epoch uint64 `json:"epoch"`
	}
	requestJSON(t, http.MethodPost, fbase+"/v1/promote", &promoted)
	if promoted.Epoch != 1 {
		t.Errorf("/v1/promote answered epoch %d, want 1", promoted.Epoch)
	}
	var health struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	requestJSON(t, http.MethodGet, fbase+"/healthz", &health)
	if health.Role != "primary" || health.Epoch != 1 {
		t.Errorf("/healthz after promotion: role %q epoch %d, want primary at 1", health.Role, health.Epoch)
	}

	// Writes now land on the promoted daemon.
	resp, err = http.Post(fbase+"/v1/observe", "application/json",
		strings.NewReader(`{"session_id": "durable", "paths": [{"path": 0, "sent": 10, "lost": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe after promotion: status %d: %s", resp.StatusCode, body)
	}

	fcancel()
	if err := <-fdone; err != nil {
		t.Fatalf("promoted run failed on shutdown: %v", err)
	}
}

// requestJSON sends a bodiless request, requires a 200 and decodes the
// JSON answer into v.
func requestJSON(t *testing.T, method, url string, v any) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// primaryFollowers reads the follower table from a primary's /metrics.
func primaryFollowers(t *testing.T, base string) []serve.ReplFollowerMetrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Replication == nil {
		t.Fatal("primary /metrics has no replication section")
	}
	return m.Replication.Followers
}

// TestRunTwoFollowersOneHost: two -follow standbys on one host share a
// hostname but not a state dir, so the primary keeps one follower
// entry for each. When one stops, its lag grows while the live one's
// stays at zero — neither overwrites the other.
func TestRunTwoFollowersOneHost(t *testing.T) {
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	var pout syncBuffer
	pbase, pdone := bootDaemon(t, pctx, &pout, "-state-dir", t.TempDir())
	post := func() {
		t.Helper()
		resp, err := http.Post(pbase+"/v1/solve", "application/json", strings.NewReader(tableIIISolve))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/solve status %d", resp.StatusCode)
		}
	}
	post()

	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	var aout, bout syncBuffer
	_, adone := bootDaemon(t, actx, &aout, "-state-dir", t.TempDir(), "-follow", pbase)
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	_, bdone := bootDaemon(t, bctx, &bout, "-state-dir", t.TempDir(), "-follow", pbase)

	// waitFollowers polls until the table holds two entries and ok
	// accepts them.
	waitFollowers := func(what string, ok func(fs []serve.ReplFollowerMetrics) bool) []serve.ReplFollowerMetrics {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			fs := primaryFollowers(t, pbase)
			if len(fs) == 2 && ok(fs) {
				return fs
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: follower table %+v", what, fs)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fs := waitFollowers("both standbys caught up", func(fs []serve.ReplFollowerMetrics) bool {
		return fs[0].LagBytes == 0 && fs[1].LagBytes == 0
	})
	if fs[0].ID == fs[1].ID {
		t.Fatalf("two standbys share follower ID %q", fs[0].ID)
	}

	// Stop B, then write: A acks the new record, B's entry keeps its
	// old position.
	bcancel()
	if err := <-bdone; err != nil {
		t.Fatalf("standby B run failed on shutdown: %v", err)
	}
	post()
	waitFollowers("one live, one stopped", func(fs []serve.ReplFollowerMetrics) bool {
		return (fs[0].LagBytes == 0) != (fs[1].LagBytes == 0)
	})

	acancel()
	if err := <-adone; err != nil {
		t.Fatalf("standby A run failed on shutdown: %v", err)
	}
	pcancel()
	if err := <-pdone; err != nil {
		t.Fatalf("primary run failed on shutdown: %v", err)
	}
}

// TestRunPromoteFlag: -promote boots a follower's state dir as the new
// primary, announcing the bumped epoch.
func TestRunPromoteFlag(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	_, done := bootDaemon(t, ctx, &out, "-state-dir", dir)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first run failed on shutdown: %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var out2 syncBuffer
	_, done2 := bootDaemon(t, ctx2, &out2, "-state-dir", dir, "-promote")
	if !strings.Contains(out2.String(), "dmcd: primary at epoch 1") {
		t.Errorf("missing promotion boot line; output: %q", out2.String())
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("promoted run failed on shutdown: %v", err)
	}
}
