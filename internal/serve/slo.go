package serve

import (
	"sync"
	"time"
)

// Critical-event classes — the taxonomy of service outcomes that count
// against the SLO. Modeled on production risk-mitigation practice: the
// remediation loop is driven by a hard ceiling on classified critical
// events per rolling window, which is only enforceable because every
// event is classified and countable.
const (
	// EventPanic is a panic recovered inside a handler or a job.
	EventPanic = "panic-recovered"
	// EventBudgetDegraded is an assessment truncated by its resource
	// budget (partial results served).
	EventBudgetDegraded = "budget-degraded"
	// EventFaultTrip is a deterministic fault-injection site firing in a
	// production-armed process (chaos drills count against the window on
	// purpose — a drill that degrades service is a degradation).
	EventFaultTrip = "fault-trip"
	// EventServerError is any 5xx response.
	EventServerError = "5xx"
)

// DefaultSLOWindow and DefaultSLOThreshold mirror the exemplar
// remediation program's SLO: fewer than 5 critical events per 7-day
// rolling window.
const (
	DefaultSLOWindow    = 7 * 24 * time.Hour
	DefaultSLOThreshold = 5
)

// sloRingCap bounds the journal: events beyond the cap evict the oldest
// entries. The count within the window saturates at the cap, which is
// fine — any realistic threshold is orders of magnitude below it.
const sloRingCap = 1024

// CriticalEvent is one journal entry.
type CriticalEvent struct {
	Time    time.Time `json:"time"`
	Class   string    `json:"class"`
	TraceID string    `json:"traceId,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// SLOMonitor is the ring-buffered critical-event journal plus the
// rolling-window compliance check. Safe for concurrent use.
type SLOMonitor struct {
	mu        sync.Mutex
	window    time.Duration
	threshold int
	now       func() time.Time
	ring      [sloRingCap]CriticalEvent
	next      int // ring cursor
	total     int64
	byClass   map[string]int64
}

// NewSLOMonitor creates a monitor for the given rolling window and
// threshold (<= 0 pick the defaults). now overrides the clock for tests
// (nil = time.Now).
func NewSLOMonitor(window time.Duration, threshold int, now func() time.Time) *SLOMonitor {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	if threshold <= 0 {
		threshold = DefaultSLOThreshold
	}
	if now == nil {
		now = time.Now
	}
	return &SLOMonitor{window: window, threshold: threshold, now: now, byClass: map[string]int64{}}
}

// Record journals one critical event.
func (m *SLOMonitor) Record(class, traceID, tenant, detail string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring[m.next%sloRingCap] = CriticalEvent{
		Time: m.now(), Class: class, TraceID: traceID, Tenant: tenant, Detail: detail,
	}
	m.next++
	m.total++
	m.byClass[class]++
}

// windowCountLocked counts journaled events inside the rolling window.
func (m *SLOMonitor) windowCountLocked() int {
	cutoff := m.now().Add(-m.window)
	n := m.next
	if n > sloRingCap {
		n = sloRingCap
	}
	count := 0
	for i := 0; i < n; i++ {
		if m.ring[i].Time.After(cutoff) {
			count++
		}
	}
	return count
}

// WindowCount returns the number of critical events inside the rolling
// window (saturating at the ring capacity).
func (m *SLOMonitor) WindowCount() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowCountLocked()
}

// Compliant reports whether the rolling window is under the threshold.
func (m *SLOMonitor) Compliant() bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowCountLocked() < m.threshold
}

// SLOReport is the GET /v1/slo body.
type SLOReport struct {
	Compliant   bool             `json:"compliant"`
	WindowHours float64          `json:"windowHours"`
	Threshold   int              `json:"threshold"`
	WindowCount int              `json:"windowCount"`
	TotalCount  int64            `json:"totalCount"`
	ByClass     map[string]int64 `json:"byClass,omitempty"`
	// Recent lists the newest journaled events, newest first (capped).
	Recent []CriticalEvent `json:"recent,omitempty"`
}

// Report snapshots the monitor state. recentMax caps the Recent list
// (<= 0 means 20).
func (m *SLOMonitor) Report(recentMax int) SLOReport {
	if recentMax <= 0 {
		recentMax = 20
	}
	if m == nil {
		return SLOReport{Compliant: true}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := SLOReport{
		WindowHours: m.window.Hours(),
		Threshold:   m.threshold,
		WindowCount: m.windowCountLocked(),
		TotalCount:  m.total,
	}
	out.Compliant = out.WindowCount < m.threshold
	if len(m.byClass) > 0 {
		out.ByClass = make(map[string]int64, len(m.byClass))
		for k, v := range m.byClass {
			out.ByClass[k] = v
		}
	}
	n := m.next
	if n > sloRingCap {
		n = sloRingCap
	}
	for i := 0; i < n && len(out.Recent) < recentMax; i++ {
		// Walk backwards from the newest entry.
		idx := ((m.next-1-i)%sloRingCap + sloRingCap) % sloRingCap
		out.Recent = append(out.Recent, m.ring[idx])
	}
	return out
}
