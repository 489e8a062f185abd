package serve

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for SLO window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestSLOMonitorDefaults(t *testing.T) {
	m := NewSLOMonitor(0, 0, nil)
	if !m.Compliant() || m.WindowCount() != 0 {
		t.Fatal("fresh monitor must be compliant and empty")
	}
	rep := m.Report(0)
	if !rep.Compliant || rep.Threshold != DefaultSLOThreshold || rep.WindowHours != DefaultSLOWindow.Hours() {
		t.Errorf("report = %+v", rep)
	}
}

func TestSLOMonitorThresholdFlip(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := NewSLOMonitor(time.Hour, 3, clk.now)
	for i := 0; i < 2; i++ {
		m.Record(EventServerError, "t1", "acme", "boom")
	}
	if !m.Compliant() {
		t.Fatal("2 events under threshold 3 must stay compliant")
	}
	m.Record(EventPanic, "t2", "acme", "worse")
	if m.Compliant() {
		t.Fatal("3 events at threshold 3 must breach")
	}
	if m.WindowCount() != 3 {
		t.Errorf("WindowCount = %d, want 3", m.WindowCount())
	}
}

func TestSLOMonitorWindowExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := NewSLOMonitor(time.Hour, 1, clk.now)
	m.Record(EventServerError, "", "", "")
	if m.Compliant() {
		t.Fatal("breached at threshold 1")
	}
	// Events age out of the rolling window; compliance recovers without
	// any explicit reset.
	clk.advance(2 * time.Hour)
	if !m.Compliant() {
		t.Fatal("event outside the window still counted")
	}
	if m.WindowCount() != 0 {
		t.Errorf("WindowCount = %d after expiry", m.WindowCount())
	}
	rep := m.Report(0)
	if rep.TotalCount != 1 {
		t.Errorf("TotalCount = %d, want 1 (journal is append-only)", rep.TotalCount)
	}
}

func TestSLOMonitorRingWrapAndRecentOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := NewSLOMonitor(100*time.Hour, 1<<30, clk.now)
	for i := 0; i < sloRingCap+10; i++ {
		clk.advance(time.Second)
		m.Record(EventFaultTrip, "", "", "")
	}
	if got := m.WindowCount(); got != sloRingCap {
		t.Errorf("WindowCount = %d, want saturation at %d", got, sloRingCap)
	}
	rep := m.Report(3)
	if len(rep.Recent) != 3 {
		t.Fatalf("Recent = %d entries, want 3", len(rep.Recent))
	}
	// Newest first.
	if !rep.Recent[0].Time.After(rep.Recent[1].Time) || !rep.Recent[1].Time.After(rep.Recent[2].Time) {
		t.Errorf("Recent not newest-first: %v", rep.Recent)
	}
	if rep.TotalCount != sloRingCap+10 {
		t.Errorf("TotalCount = %d", rep.TotalCount)
	}
	if rep.ByClass[EventFaultTrip] != sloRingCap+10 {
		t.Errorf("ByClass = %v", rep.ByClass)
	}
}

func TestSLOMonitorNilSafe(t *testing.T) {
	var m *SLOMonitor
	m.Record(EventPanic, "", "", "")
	if !m.Compliant() || m.WindowCount() != 0 {
		t.Fatal("nil monitor must be inert and compliant")
	}
	if rep := m.Report(5); !rep.Compliant {
		t.Fatal("nil monitor report must be compliant")
	}
}
