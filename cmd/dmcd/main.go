// Command dmcd is the online solver daemon: a long-lived HTTP/JSON
// service answering deadline-aware multipath optimization requests over
// sharded warm-solver pools, so a fleet of sessions under drifting
// estimates re-solves incrementally instead of from scratch.
//
// Usage:
//
//	dmcd -addr :7117
//	dmcd -addr :7117 -shards 4 -max-batch 128 -queue 2048
//	dmcd -addr :7117 -state-dir /var/lib/dmcd -repl-ack sync
//	dmcd -addr :7118 -state-dir /var/lib/dmcd-standby -follow http://primary:7117
//
// API (JSON bodies; schema in internal/scenario):
//
//	POST   /v1/solve        {"network": {...}, "objective": "quality|mincost|random",
//	                         "min_quality": 0.95, "timeout": {...},
//	                         "session_id": "s1", "estimator": true}
//	POST   /v1/observe      {"session_id": "s1", "paths": [{"path": 0, "sent": 100,
//	                         "lost": 3, "rtt_ms": [42.1]}]}
//	DELETE /v1/session/{id}
//	GET    /v1/replicate    follower journal stream: upgrades to one
//	                        full-duplex dmc-repl/1 connection per
//	                        follower (persistence only)
//	POST   /v1/promote      promote this standby to primary in place
//	                        (on a primary: answers its epoch, no change)
//	GET    /metrics
//	GET    /healthz
//
// A session_id pins requests to a session-keyed warm solver (LP basis
// and column-pool affinity across re-solves); "estimator": true attaches
// a §VIII-A estimator feed that /v1/observe measurements drive, warm
// re-solving only when the estimates drift. A full shard queue answers
// 429 with a Retry-After hint. SIGINT/SIGTERM shut down gracefully:
// admitted solves drain before the process exits.
//
// -state-dir makes sessions durable: acknowledged session state (the
// scenario/objective binding, estimator counters, last good strategy)
// is journaled with fsync before the response, compacted into periodic
// snapshots, and restored at the next boot — even after kill -9, which
// at worst leaves a torn journal suffix that boot truncates. See the
// README's "Durability & restart".
//
// Replication (see the README's "Replication & failover"): a primary
// with -state-dir streams its journal to hot standbys started with
// -follow <primary-url>, each over one long-lived upgraded connection
// that carries journal chunks one way and durable acks the other. A
// standby is the same server in the follower role: it answers solves
// for replicated sessions degraded, refuses writes with 503, and
// reports "role": "follower" on /healthz and /metrics. It names itself
// to the primary by hostname and absolute state dir, so several
// standbys on one host keep separate lag entries. -repl-ack sync
// withholds 2xx until a follower has durably applied the record
// ("acknowledged means replicated"); the default async mode
// acknowledges on local fsync. A standby is promoted by POST
// /v1/promote (in place: same process, same listener, answering the
// new epoch) or by restarting it with -promote; either way the new
// primary's epoch fences the old one, whose stale incarnation is
// refused on rejoin and resyncs as a follower via a snapshot reset
// transfer.
//
// Failure containment (see the README's "Failure modes & degradation"):
// "budget_ms" per request bounds queue wait (504 when it expires,
// capped by -max-budget), per-shard circuit breakers fail fast with 503
// while the solver is faulting (-breaker-threshold, -breaker-cooldown,
// -serve-degraded), and solver panics answer 500 while the poisoned
// session solver is quarantined. DMC_FAULT_POINTS/DMC_FAULT_SEED
// activate the deterministic fault-injection harness (chaos drills
// only — never in production).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmc/internal/fault"
	"dmc/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmcd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dmcd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":7117", "listen address")
		shards      = fs.Int("shards", 0, "warm-pool shards (0 = GOMAXPROCS)")
		maxBatch    = fs.Int("max-batch", 0, "max solves per wave (0 = 256)")
		queue       = fs.Int("queue", 0, "admitted-task queue bound per shard (0 = 1024)")
		estTol      = fs.Float64("est-tol", 0, "estimator re-solve drift tolerance (0 = adaptor default)")
		maxBudget   = fs.Duration("max-budget", 0, "deadline-budget cap and default (0 = 30s, negative = no default)")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive solver faults tripping a shard breaker (0 = 8, negative = off)")
		brkCooldown = fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 2s)")
		degraded    = fs.Bool("serve-degraded", false, "serve a session's last good strategy while its breaker is open")
		stateDir    = fs.String("state-dir", "", "session durability dir: snapshot+journal written here, sessions restored at boot (empty = no persistence)")
		snapBytes   = fs.Int64("snapshot-bytes", 0, "journal size triggering a compacting snapshot (0 = 4MB, negative = only final snapshot)")
		noSync      = fs.Bool("journal-nosync", false, "skip per-record journal fsync (faster appends, crash may lose the tail)")
		follow      = fs.String("follow", "", "run as a hot-standby follower replicating from this primary URL (requires -state-dir)")
		promote     = fs.Bool("promote", false, "boot as the new primary from a follower's state dir, bumping the fencing epoch")
		replAck     = fs.String("repl-ack", "", `replication acknowledgement mode: "async" (default: acks on local fsync) or "sync" (withholds 2xx until a follower acks)`)
		replAckTo   = fs.Duration("repl-ack-timeout", 0, "sync mode: how long a write waits for a follower ack before failing (0 = 5s)")
		replLagWarn = fs.Int64("repl-lag-warn", 0, "follower lag in journal bytes beyond which /healthz degrades (0 = snapshot-bytes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Chaos drills: an operator (or the chaos-smoke CI job) can arm the
	// deterministic fault injectors from the environment.
	if plan, err := fault.FromEnv(); err != nil {
		return err
	} else if plan != nil {
		fault.Activate(plan)
		fmt.Fprintf(stdout, "dmcd: fault injection ARMED (seed %d) at points %v\n", plan.Seed, fault.Points())
	}

	cfg := serve.Config{
		Shards:           *shards,
		MaxBatch:         *maxBatch,
		MaxQueue:         *queue,
		EstimatorRelTol:  *estTol,
		MaxBudget:        *maxBudget,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ServeDegraded:    *degraded,
		StateDir:         *stateDir,
		SnapshotBytes:    *snapBytes,
		JournalNoSync:    *noSync,
		ReplAck:          *replAck,
		ReplAckTimeout:   *replAckTo,
		ReplLagWarn:      *replLagWarn,
		Promote:          *promote,
		Follow:           *follow,
	}

	if *follow != "" && *stateDir == "" {
		return errors.New("-follow requires -state-dir (the follower journals the replicated stream)")
	}
	if *follow != "" && *promote {
		return errors.New("-follow and -promote are mutually exclusive: -promote boots a former follower's state dir as the new primary")
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if *stateDir != "" {
		fmt.Fprintf(stdout, "dmcd: durability on (%s): restored %d sessions\n", *stateDir, srv.Restored())
		fmt.Fprintf(stdout, "dmcd: %s at epoch %d\n", srv.Role(), srv.Epoch())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	return serveHTTP(ctx, ln, srv.Handler(), stdout, srv.QuiesceReplication, srv.Close)
}

// serveHTTP serves handler on ln until ctx is canceled, then shuts
// down gracefully: run quiesce (closing replication streams and
// releasing sync-ack waits), stop accepting, and drain in-flight HTTP.
// closeFn (which drains the solver/replication side) runs last, on
// every return.
//
// The timeouts harden the listener against slow clients (slowloris
// headers, stalled bodies, dead keep-alives). A replication stream
// legitimately outlives ReadTimeout/WriteTimeout; its handler takes the
// connection over (hijacks it) and clears both, keeping its own
// heartbeat deadline, rather than this server going unbounded for
// everyone.
func serveHTTP(ctx context.Context, ln net.Listener, handler http.Handler, stdout io.Writer, quiesce, closeFn func()) error {
	defer closeFn()
	fmt.Fprintf(stdout, "dmcd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Stop accepting, let in-flight HTTP requests finish, then drain the
	// solver waves.
	fmt.Fprintln(stdout, "dmcd: shutting down")
	quiesce()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
