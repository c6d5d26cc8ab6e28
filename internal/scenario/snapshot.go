// Snapshot wire schema: the versioned records cmd/dmcd's durability
// layer (internal/serve's snapshot + journal) writes so session state —
// the scenario/objective binding, the §VIII-A estimator counters, and
// the last good strategy — survives a process restart. The schema lives
// here, next to the HTTP wire schema it embeds, so the same validation
// and fuzz coverage applies to both.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
)

// SnapshotVersion is the snapshot/journal record schema version this
// build reads and writes. Records from a newer schema are rejected with
// a clear error at replay — never mis-parsed into an older shape.
//
// v2 added Epoch, the replicated-failover fencing term: every record
// carries the epoch of the primary that wrote it, and a promotion bumps
// the epoch so a partitioned stale primary's stream is rejected instead
// of silently merged. v1 records load as epoch 0.
const SnapshotVersion = 2

// Snapshot record kinds.
const (
	// RecordSession carries one session's full durable state; the
	// highest-Seq record per session wins at replay.
	RecordSession = "session"
	// RecordDrop marks a session dropped; a later RecordSession with a
	// higher Seq resurrects it.
	RecordDrop = "drop"
)

// PathEstimate is one path's §VIII-A estimator counters on the wire.
// The RTT terms stay in seconds — the estimator's native float unit —
// so a restore reproduces the estimates bit-for-bit instead of rounding
// through a milliseconds conversion.
type PathEstimate struct {
	Sent int64 `json:"sent,omitempty"`
	Lost int64 `json:"lost,omitempty"`
	// SRTTSec and RTTVarSec are the RFC 6298 smoothed RTT terms.
	SRTTSec   float64 `json:"srtt_sec,omitempty"`
	RTTVarSec float64 `json:"rttvar_sec,omitempty"`
	// RTTSamples is how many RTT observations were folded in.
	RTTSamples int64 `json:"rtt_samples,omitempty"`
}

// SessionState is one session's durable state: everything the daemon
// needs to answer the session correctly after a restart. The warm
// solver itself (LP basis, CG column pool) is deliberately absent —
// correctness lives in the estimates and the binding; warmth returns
// after one solve.
type SessionState struct {
	ID string `json:"id"`
	// Solve is the session's scenario/objective binding: the network and
	// objective of its most recent successful solve.
	Solve Solve `json:"solve"`
	// Estimator marks a session with a §VIII-A estimator feed; Estimates
	// then carries the feed's per-path counters (one entry per path of
	// the bound network).
	Estimator bool           `json:"estimator,omitempty"`
	Estimates []PathEstimate `json:"estimates,omitempty"`
	// LastGood is the session's most recent successful wire result, kept
	// so degraded serving works immediately after a restart.
	LastGood *SolveResult `json:"last_good,omitempty"`
}

// SnapshotRecord is one framed record of the snapshot/journal stream.
type SnapshotRecord struct {
	// Version is the schema version (SnapshotVersion when written by
	// this build). Every record carries it so a journal can safely mix
	// records across in-place upgrades.
	Version int `json:"v"`
	// Seq orders records globally: replay keeps the highest-Seq record
	// per session, which makes re-applying a journal after a partially
	// compacted snapshot idempotent.
	Seq uint64 `json:"seq"`
	// Epoch (v2) is the fencing term of replicated failover: the writing
	// primary's election epoch. A follower promotion bumps the epoch, so
	// a stale primary's post-partition records are identifiable — and
	// rejectable — by every replica that saw the newer epoch. v1 records
	// (and single-node deployments) carry epoch 0.
	Epoch uint64 `json:"epoch,omitempty"`
	Kind  string `json:"kind"`
	// Session is the payload of a RecordSession record.
	Session *SessionState `json:"session,omitempty"`
	// SessionID is the payload of a RecordDrop record.
	SessionID string `json:"session_id,omitempty"`
}

// snapshotVersionProbe reads only the version field, tolerating unknown
// fields: a future-version record may carry fields this build has never
// heard of, and the version check must happen before strict parsing
// would trip over them.
type snapshotVersionProbe struct {
	Version int `json:"v"`
}

// SnapshotRecordVersion peeks at a raw record's schema version without
// strict parsing: a record from a newer schema must be rejected by
// version, not mangled by a field error. DecodeSnapshotRecord falls back
// to it when a record does not parse.
func SnapshotRecordVersion(data []byte) (int, error) {
	var p snapshotVersionProbe
	if err := json.Unmarshal(data, &p); err != nil {
		return 0, fmt.Errorf("scenario: snapshot record is not JSON: %w", err)
	}
	return p.Version, nil
}

// DecodeSnapshotRecord parses one raw record into rec and checks its
// schema version in a single JSON pass. Only a record that fails to
// parse is probed for its version (SnapshotRecordVersion), so a newer
// schema that changed a known field's type is still refused by version
// rather than with a type error. The caller validates rec afterwards.
func DecodeSnapshotRecord(data []byte, rec *SnapshotRecord) error {
	if err := json.Unmarshal(data, rec); err != nil {
		if v, perr := SnapshotRecordVersion(data); perr == nil {
			if verr := CheckSnapshotVersion(v); verr != nil {
				return verr
			}
		}
		return fmt.Errorf("scenario: parsing snapshot record: %w", err)
	}
	return CheckSnapshotVersion(rec.Version)
}

// CheckSnapshotVersion rejects versions this build cannot read.
func CheckSnapshotVersion(v int) error {
	if v <= 0 {
		return fmt.Errorf("scenario: snapshot record missing schema version (v=%d)", v)
	}
	if v > SnapshotVersion {
		return fmt.Errorf("scenario: snapshot record schema v%d is newer than this build reads (<= v%d); refusing to guess at its layout", v, SnapshotVersion)
	}
	return nil
}

// Validate checks a snapshot record's structure: version, kind, payload
// presence, the embedded solve binding, and the estimator counters.
func (r *SnapshotRecord) Validate() error {
	if err := CheckSnapshotVersion(r.Version); err != nil {
		return err
	}
	switch r.Kind {
	case RecordSession:
		if r.SessionID != "" {
			return fmt.Errorf("scenario: session record carries a stray session_id %q", r.SessionID)
		}
		if r.Session == nil {
			return fmt.Errorf("scenario: session record has no session payload")
		}
		return r.Session.Validate()
	case RecordDrop:
		if r.Session != nil {
			return fmt.Errorf("scenario: drop record carries a stray session payload")
		}
		if r.SessionID == "" {
			return fmt.Errorf("scenario: drop record has no session_id")
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown snapshot record kind %q", r.Kind)
	}
}

// Validate checks a session state's internal consistency.
func (s *SessionState) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("scenario: session state has no id")
	}
	if err := s.Solve.Validate(); err != nil {
		return fmt.Errorf("scenario: session %q binding: %w", s.ID, err)
	}
	// Solve.Validate leaves the network to ToNetwork (requests convert
	// immediately anyway); a durable record must carry a convertible
	// network or the restore it exists for can never succeed.
	if _, err := s.Solve.Network.ToNetwork(); err != nil {
		return fmt.Errorf("scenario: session %q binding: %w", s.ID, err)
	}
	if !s.Estimator && len(s.Estimates) > 0 {
		return fmt.Errorf("scenario: session %q has estimator counters but no estimator feed", s.ID)
	}
	if s.Estimator {
		obj, _ := s.Solve.ObjectiveKind()
		if obj != ObjectiveQuality {
			return fmt.Errorf("scenario: estimator session %q bound to objective %q; estimator feeds support only %q", s.ID, obj, ObjectiveQuality)
		}
		if len(s.Estimates) != len(s.Solve.Network.Paths) {
			return fmt.Errorf("scenario: estimator session %q has %d path estimates for a %d-path network", s.ID, len(s.Estimates), len(s.Solve.Network.Paths))
		}
	}
	for i, e := range s.Estimates {
		if e.Sent < 0 || e.Lost < 0 || e.Lost > e.Sent {
			return fmt.Errorf("scenario: session %q path %d needs 0 <= lost <= sent, got sent=%d lost=%d", s.ID, i, e.Sent, e.Lost)
		}
		if e.RTTSamples < 0 {
			return fmt.Errorf("scenario: session %q path %d has negative rtt_samples %d", s.ID, i, e.RTTSamples)
		}
		if bad(e.SRTTSec) || bad(e.RTTVarSec) {
			return fmt.Errorf("scenario: session %q path %d has malformed RTT terms srtt=%v rttvar=%v", s.ID, i, e.SRTTSec, e.RTTVarSec)
		}
	}
	return nil
}

// bad reports a float that can never be a valid estimator term.
func bad(f float64) bool {
	return math.IsNaN(f) || math.IsInf(f, 0) || f < 0
}
