package lifecycle

import (
	"sort"
	"sync"
	"time"
)

// Health tracks per-subsystem degradation state for a serving front
// end's /healthz endpoint. Subsystems report degradation events as they
// degrade a query (e.g. "store: load failed; tree rebuilt"); a fully
// clean solve clears the board, since one healthy end-to-end query
// exercises the main path. The registry never gates queries — it is an
// observability surface over the degradation ladder, not a breaker.
//
// The zero value is not usable; construct with NewHealth.
type Health struct {
	mu   sync.Mutex
	subs map[string]*SubsystemHealth
}

// SubsystemHealth is the point-in-time state of one subsystem.
type SubsystemHealth struct {
	// OK is false while the most recent signal for the subsystem was a
	// degradation event.
	OK bool `json:"ok"`
	// Reason is the most recent degradation detail, empty when OK.
	Reason string `json:"reason,omitempty"`
	// Since is when the subsystem entered its current state.
	Since time.Time `json:"since"`
	// Events counts degradation events since construction (it survives
	// recoveries, so operators can spot flapping).
	Events int64 `json:"events"`
}

// NewHealth builds an empty health registry.
func NewHealth() *Health {
	return &Health{subs: make(map[string]*SubsystemHealth)}
}

// Report records a degradation event for subsystem sub with a detail
// string, marking it not-OK.
func (h *Health) Report(sub, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.subs[sub]
	if s == nil {
		s = &SubsystemHealth{OK: true, Since: time.Now()}
		h.subs[sub] = s
	}
	if s.OK {
		s.Since = time.Now()
	}
	s.OK = false
	s.Reason = reason
	s.Events++
}

// ClearAll marks every tracked subsystem healthy again, preserving the
// event counters. Called after a fully clean solve.
func (h *Health) ClearAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		if !s.OK {
			s.OK = true
			s.Reason = ""
			s.Since = time.Now()
		}
	}
}

// Snapshot returns a copy of the per-subsystem states.
func (h *Health) Snapshot() map[string]SubsystemHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]SubsystemHealth, len(h.subs))
	for name, s := range h.subs {
		out[name] = *s
	}
	return out
}

// Degraded reports whether any subsystem is currently not-OK, along
// with the sorted list of "sub: reason" strings for those that are.
func (h *Health) Degraded() (bool, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var reasons []string
	for name, s := range h.subs {
		if !s.OK {
			reasons = append(reasons, name+": "+s.Reason)
		}
	}
	sort.Strings(reasons)
	return len(reasons) > 0, reasons
}
