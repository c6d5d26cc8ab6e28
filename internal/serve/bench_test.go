package serve

import (
	"math/rand/v2"
	"net/http/httptest"
	"testing"
	"time"

	"dmc/internal/scenario"
)

// benchRecord is a session record carrying a 3-path binding, with no
// estimator counters or last-good strategy.
func benchRecord() *scenario.SnapshotRecord {
	rng := rand.New(rand.NewPCG(3, 9))
	return &scenario.SnapshotRecord{
		Version: scenario.SnapshotVersion,
		Kind:    scenario.RecordSession,
		Session: &scenario.SessionState{ID: "bench", Solve: scenario.Solve{Network: testNetwork(rng, 3)}},
	}
}

// BenchmarkJournalAppend is the journal layer alone: frame one session
// record and append it, with the per-record fsync a durable primary
// pays and without it (-journal-nosync).
func BenchmarkJournalAppend(b *testing.B) {
	for _, c := range []struct {
		name   string
		noSync bool
	}{{"fsync", false}, {"nosync", true}} {
		b.Run(c.name, func(b *testing.B) {
			p, _, _, err := openPersister(b.TempDir(), 0, c.noSync)
			if err != nil {
				b.Fatal(err)
			}
			defer p.close()
			rec := benchRecord()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Seq = uint64(i + 1)
				if _, err := p.append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicationAck is the replication layer alone: one
// sync-mode append on a primary (local fsync off, as on the
// durable-async workload), returning once a real follower on loopback
// has fsync'd it and acknowledged it.
func BenchmarkReplicationAck(b *testing.B) {
	srv, err := New(Config{
		Shards: 1, StateDir: b.TempDir(), JournalNoSync: true, SnapshotBytes: -1,
		ReplAck: ReplAckSync, ReplAckTimeout: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	fol, err := New(Config{Shards: 1, StateDir: b.TempDir(), Follow: ts.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { fol.Close(); ts.Close(); srv.Close() }()
	rec := benchRecord()
	write := func() {
		rec.Seq, rec.Epoch = srv.stateSeq.Add(1), srv.epoch
		if err := srv.appendDurable(rec); err != nil {
			b.Fatal(err)
		}
	}
	// The first write also waits out the follower's connect and initial
	// reset transfer.
	write()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}
