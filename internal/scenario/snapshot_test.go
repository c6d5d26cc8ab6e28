package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// validSessionState builds a minimal valid estimator session state over
// the Table III network.
func validSessionState(t *testing.T) *SessionState {
	t.Helper()
	var n Network
	if err := Load(strings.NewReader(tableIIIJSON), &n); err != nil {
		t.Fatal(err)
	}
	return &SessionState{
		ID:        "sess-1",
		Solve:     Solve{Network: n},
		Estimator: true,
		Estimates: []PathEstimate{
			{Sent: 100, Lost: 5, SRTTSec: 0.45, RTTVarSec: 0.02, RTTSamples: 40},
			{Sent: 80, Lost: 0, SRTTSec: 0.15, RTTVarSec: 0.01, RTTSamples: 40},
		},
	}
}

func validRecord(t *testing.T) *SnapshotRecord {
	t.Helper()
	return &SnapshotRecord{
		Version: SnapshotVersion,
		Seq:     7,
		Kind:    RecordSession,
		Session: validSessionState(t),
	}
}

func TestSnapshotRecordValidateOK(t *testing.T) {
	if err := validRecord(t).Validate(); err != nil {
		t.Fatalf("valid session record rejected: %v", err)
	}
	drop := &SnapshotRecord{Version: SnapshotVersion, Seq: 8, Kind: RecordDrop, SessionID: "sess-1"}
	if err := drop.Validate(); err != nil {
		t.Fatalf("valid drop record rejected: %v", err)
	}
}

// TestSnapshotRecordValidateErrors walks every structural error path of
// the record schema: each mutation must be rejected, and the error must
// say something useful (non-empty, mentions scenario).
func TestSnapshotRecordValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *SnapshotRecord)
	}{
		{"missing version", func(r *SnapshotRecord) { r.Version = 0 }},
		{"negative version", func(r *SnapshotRecord) { r.Version = -3 }},
		{"unknown kind", func(r *SnapshotRecord) { r.Kind = "checkpoint" }},
		{"empty kind", func(r *SnapshotRecord) { r.Kind = "" }},
		{"session record without payload", func(r *SnapshotRecord) { r.Session = nil }},
		{"session record with stray session_id", func(r *SnapshotRecord) { r.SessionID = "stray" }},
		{"drop record without session_id", func(r *SnapshotRecord) {
			r.Kind = RecordDrop
			r.Session = nil
			r.SessionID = ""
		}},
		{"drop record with stray session payload", func(r *SnapshotRecord) {
			r.Kind = RecordDrop
			r.SessionID = "sess-1"
		}},
		{"session without id", func(r *SnapshotRecord) { r.Session.ID = "" }},
		{"invalid binding network", func(r *SnapshotRecord) { r.Session.Solve.Network.RateMbps = -1 }},
		{"invalid binding objective", func(r *SnapshotRecord) { r.Session.Solve.Objective = "fastest" }},
		{"estimates without estimator flag", func(r *SnapshotRecord) { r.Session.Estimator = false }},
		{"estimator on non-quality objective", func(r *SnapshotRecord) {
			r.Session.Solve.Objective = ObjectiveMinCost
			r.Session.Solve.MinQuality = 0.9
		}},
		{"estimate count != path count", func(r *SnapshotRecord) {
			r.Session.Estimates = r.Session.Estimates[:1]
		}},
		{"lost over sent", func(r *SnapshotRecord) { r.Session.Estimates[0] = PathEstimate{Sent: 1, Lost: 2} }},
		{"negative sent", func(r *SnapshotRecord) { r.Session.Estimates[0].Sent = -1 }},
		{"negative rtt samples", func(r *SnapshotRecord) { r.Session.Estimates[1].RTTSamples = -1 }},
		{"NaN srtt", func(r *SnapshotRecord) { r.Session.Estimates[0].SRTTSec = math.NaN() }},
		{"infinite rttvar", func(r *SnapshotRecord) { r.Session.Estimates[0].RTTVarSec = math.Inf(1) }},
		{"negative srtt", func(r *SnapshotRecord) { r.Session.Estimates[0].SRTTSec = -0.1 }},
	}
	for _, tc := range cases {
		r := validRecord(t)
		tc.mutate(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "scenario") {
			t.Errorf("%s: error %q does not identify its source", tc.name, err)
		}
	}
}

// TestSnapshotFutureVersionRejected is the schema-evolution contract: a
// record from a newer build — carrying fields this build has never
// heard of — must be rejected BY VERSION with a clear error, never
// mis-parsed into the old shape or bounced with a confusing
// unknown-field error.
func TestSnapshotFutureVersionRejected(t *testing.T) {
	future := `{"v": 3, "seq": 9, "kind": "session", "shard_affinity": "warm-7",
		"session": {"id": "s", "quorum": 4}}`
	v, err := SnapshotRecordVersion([]byte(future))
	if err != nil {
		t.Fatalf("version peek must tolerate unknown fields: %v", err)
	}
	if v != 3 {
		t.Fatalf("peeked version %d, want 3", v)
	}
	err = CheckSnapshotVersion(v)
	if err == nil {
		t.Fatal("future version accepted")
	}
	for _, want := range []string{"v3", "newer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rejection %q should mention %q", err, want)
		}
	}
	// Versions this build writes stay accepted; the probe also rejects
	// garbage that is not JSON at all.
	if err := CheckSnapshotVersion(SnapshotVersion); err != nil {
		t.Errorf("own version rejected: %v", err)
	}
	if _, err := SnapshotRecordVersion([]byte("\x00\x01garbage")); err == nil {
		t.Error("non-JSON record accepted by version peek")
	}
}

// TestDecodeSnapshotRecordVersionFirst: decoding parses a record once,
// yet a newer schema is refused by version whether its record parses
// into this build's layout (unknown fields) or not (a known field
// retyped); a current record decodes, and garbage reports a parse error.
func TestDecodeSnapshotRecordVersionFirst(t *testing.T) {
	for _, future := range []string{
		`{"v": 3, "seq": 9, "kind": "session", "shard_affinity": "warm-7", "session": {"id": "s"}}`,
		`{"v": 3, "seq": "9-a", "kind": "session", "session": {"id": "s"}}`,
	} {
		var rec SnapshotRecord
		err := DecodeSnapshotRecord([]byte(future), &rec)
		if err == nil || !strings.Contains(err.Error(), "v3") || !strings.Contains(err.Error(), "newer") {
			t.Errorf("%s: error %v, want a v3 version refusal", future, err)
		}
	}
	data, err := json.Marshal(validRecord(t))
	if err != nil {
		t.Fatal(err)
	}
	var rec SnapshotRecord
	if err := DecodeSnapshotRecord(data, &rec); err != nil {
		t.Fatalf("current record: %v", err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("decoded record invalid: %v", err)
	}
	if err := DecodeSnapshotRecord([]byte("\x00\x01garbage"), &rec); err == nil || strings.Contains(err.Error(), "newer") {
		t.Errorf("garbage: error %v, want a parse error", err)
	}
	if err := DecodeSnapshotRecord([]byte(`{"seq": "x"}`), &rec); err == nil || !strings.Contains(err.Error(), "missing schema version") {
		t.Errorf("unversioned unparsable record: error %v, want the missing-version refusal", err)
	}
}

// TestSnapshotV1RecordStillLoads is the backward half of the schema
// contract: v1 records (written before the replication epoch existed)
// must keep loading — parsing to epoch 0 and validating clean — because
// an in-place upgrade replays the previous build's journal.
func TestSnapshotV1RecordStillLoads(t *testing.T) {
	if err := CheckSnapshotVersion(1); err != nil {
		t.Fatalf("v1 rejected by version check: %v", err)
	}
	r := validRecord(t)
	r.Version = 1
	r.Epoch = 0
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "epoch") {
		t.Errorf("epoch 0 must marshal away (omitempty), so v1-compatible records stay byte-stable: %s", data)
	}
	var back SnapshotRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("v1 record did not parse: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("v1 record did not validate: %v", err)
	}
	if back.Epoch != 0 {
		t.Errorf("v1 record loaded with epoch %d, want 0", back.Epoch)
	}
}

// TestSnapshotEpochRoundTrip: the v2 fencing term must survive the wire
// exactly — a promotion's epoch bump is only as durable as this field.
func TestSnapshotEpochRoundTrip(t *testing.T) {
	r := validRecord(t)
	r.Epoch = 7
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back SnapshotRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("epoch-carrying record did not validate: %v", err)
	}
	if back.Epoch != 7 {
		t.Errorf("epoch %d after round trip, want 7", back.Epoch)
	}
	drop := &SnapshotRecord{Version: SnapshotVersion, Seq: 9, Epoch: 7, Kind: RecordDrop, SessionID: "sess-1"}
	if err := drop.Validate(); err != nil {
		t.Fatalf("epoch-carrying drop record rejected: %v", err)
	}
}
