// Package breaker is the consecutive-failure circuit breaker shared by
// the worker pool (one per worker), the serve fleet (one per node) and the
// fleet-aware client (one per dial target). A circuit is Healthy until
// threshold consecutive failures trip it into Quarantined for a backoff
// that doubles on every re-trip up to a maximum; once the backoff has
// passed it is Probing (half-open), where one success readmits it and one
// failure quarantines it again.
package breaker

import (
	"fmt"
	"time"
)

// State is a circuit's position.
type State int

const (
	// Healthy circuits take work.
	Healthy State = iota
	// Quarantined circuits sit out their backoff after a trip.
	Quarantined
	// Probing circuits have served their backoff and are half-open: the
	// next outcome readmits or re-quarantines.
	Probing
)

// String renders the state for status output and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker is one member's circuit; the zero value is Healthy. It is not
// safe for concurrent use: the owner guards it with its own lock.
type Breaker struct {
	State State
	// Consecutive counts failures since the last success.
	Consecutive int
	// Backoff is the current quarantine length; zero until the first trip
	// after a success.
	Backoff time.Duration
	// ReopenAt is when the current quarantine ends.
	ReopenAt time.Time
}

// Fail records one failure and reports whether it tripped the circuit.
// The threshold-th consecutive failure, or any failure while Probing,
// quarantines the member for base on the first trip and twice the
// previous backoff (at most max) on every later one.
func (b *Breaker) Fail(threshold int, base, max time.Duration) (tripped bool) {
	b.Consecutive++
	if b.State != Probing && b.Consecutive < threshold {
		return false
	}
	if b.Backoff == 0 {
		b.Backoff = base
	} else if b.Backoff *= 2; b.Backoff > max {
		b.Backoff = max
	}
	b.State = Quarantined
	b.ReopenAt = time.Now().Add(b.Backoff)
	return true
}

// Succeed closes the circuit and reports whether it was open, that is,
// whether this success readmits the member.
func (b *Breaker) Succeed() (readmitted bool) {
	readmitted = b.State != Healthy
	*b = Breaker{}
	return readmitted
}

// Admit reports whether the member may take work now. A quarantined
// member whose backoff has passed moves to Probing: the caller's attempt
// is its half-open trial.
func (b *Breaker) Admit() bool {
	if b.State == Quarantined {
		if time.Now().Before(b.ReopenAt) {
			return false
		}
		b.State = Probing
	}
	return true
}
