package serve

import (
	"testing"
	"time"

	"dmc/internal/leak"
)

// TestMain fails the package when a test leaks server goroutines (wave
// workers, session queues, handler connections): forgetting Close here
// contaminates every later test's timing.
//
// Followers reopen a failed replication stream after 5 ms instead of
// the production backoff, so tests that break streams stay fast.
func TestMain(m *testing.M) {
	replRetry = 5 * time.Millisecond
	leak.VerifyTestMain(m)
}
