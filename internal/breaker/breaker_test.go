package breaker

import (
	"testing"
	"time"
)

// TestBreaker walks one circuit through a scripted sequence of outcomes
// and checks its state after each step: the trip at the threshold, the
// backoff doubling up to the max, a half-open trial that fails and
// re-trips at once, and the full reset on a success.
func TestBreaker(t *testing.T) {
	const (
		threshold = 3
		base      = 10 * time.Millisecond
		max       = 25 * time.Millisecond
	)
	type step struct {
		op          string // "fail", "succeed", "admit" (before reopen), "reopen" (admit after it)
		wantRet     bool
		wantState   State
		wantCons    int
		wantBackoff time.Duration
	}
	steps := []step{
		{"fail", false, Healthy, 1, 0},
		{"fail", false, Healthy, 2, 0},
		{"fail", true, Quarantined, 3, base}, // threshold trips
		{"admit", false, Quarantined, 3, base},
		{"fail", true, Quarantined, 4, 2 * base}, // a late failure re-trips
		{"reopen", true, Probing, 4, 2 * base},
		{"fail", true, Quarantined, 5, max}, // doubling capped at max
		{"reopen", true, Probing, 5, max},
		{"fail", true, Quarantined, 6, max},
		{"reopen", true, Probing, 6, max},
		{"succeed", true, Healthy, 0, 0}, // the probe readmits
		{"succeed", false, Healthy, 0, 0},
		{"fail", false, Healthy, 1, 0}, // the count starts over
		{"admit", true, Healthy, 1, 0},
		{"succeed", false, Healthy, 0, 0},
		{"fail", false, Healthy, 1, 0},
		{"fail", false, Healthy, 2, 0},
		{"fail", true, Quarantined, 3, base}, // and so does the backoff
	}
	var b Breaker
	for i, s := range steps {
		var got bool
		switch s.op {
		case "fail":
			got = b.Fail(threshold, base, max)
		case "succeed":
			got = b.Succeed()
		case "admit":
			got = b.Admit()
		case "reopen":
			b.ReopenAt = time.Now().Add(-time.Millisecond)
			got = b.Admit()
		}
		if got != s.wantRet || b.State != s.wantState || b.Consecutive != s.wantCons || b.Backoff != s.wantBackoff {
			t.Fatalf("step %d (%s): got %v %+v; want %v state=%v consecutive=%d backoff=%v",
				i, s.op, got, b, s.wantRet, s.wantState, s.wantCons, s.wantBackoff)
		}
		if b.State == Quarantined && s.op == "fail" && s.wantRet {
			if until := time.Until(b.ReopenAt); until <= 0 || until > b.Backoff {
				t.Fatalf("step %d: reopen in %v, want within (0, %v]", i, until, b.Backoff)
			}
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Healthy: "healthy", Quarantined: "quarantined", Probing: "probing", 7: "state(7)"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}
