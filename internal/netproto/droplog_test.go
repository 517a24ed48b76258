package netproto

import (
	"strings"
	"sync"
	"testing"

	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/ops"
	"secureangle/internal/wifi"
)

// lineCounter is a Logf that keeps each line's format string, so a
// test can count the lines of one kind.
type lineCounter struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineCounter) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, format)
}

func (l *lineCounter) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// counterValue reads an unlabelled counter from a registry walk.
func counterValue(t *testing.T, reg *ops.Registry, name string) float64 {
	t.Helper()
	found, v := false, 0.0
	reg.Walk(func(s ops.Sample) {
		if s.Name == name {
			found, v = true, s.Value
		}
	})
	if !found {
		t.Fatalf("metric %s not exposed", name)
	}
	return v
}

// TestDecisionDropsLogRateLimited: nothing drains Decisions(), so every
// decision past the channel's buffer is dropped. 1,000 drops must cost
// at most two log lines and count 1,000 on the counter.
func TestDecisionDropsLogRateLimited(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	var logs lineCounter
	c.Logf = logs.logf
	defer c.Close()
	reg := ops.NewRegistry()
	c.RegisterOps(reg)

	const drops = 1000
	for i := 0; i < cap(c.decision)+drops; i++ {
		if !c.fanOutDecision(fusion.Decision{MAC: wifi.Addr{0x66, 0, 0, 0, 0, 1}, Seq: uint64(i), Decision: locate.Allow}) {
			t.Fatal("controller closed mid-test")
		}
	}
	if n := logs.count("decision channel full"); n < 1 || n > 2 {
		t.Fatalf("%d drops logged %d lines, want 1..2", drops, n)
	}
	if got := c.Stats().DecisionsDropped; got != drops {
		t.Fatalf("DecisionsDropped = %d, want %d", got, drops)
	}
	if v := counterValue(t, reg, "secureangle_controller_decisions_dropped_total"); v != drops {
		t.Fatalf("decisions_dropped_total = %g, want %d", v, drops)
	}
}

// TestUnknownAPDropsLogRateLimited: reports from an AP that never sent
// a Hello, per frame and in batches, share one rate-limited log line
// and are all counted.
func TestUnknownAPDropsLogRateLimited(t *testing.T) {
	c := NewController(&locate.Fence{Boundary: geom.Rect(0, 0, 24, 16)})
	var logs lineCounter
	c.Logf = logs.logf
	defer c.Close()
	reg := ops.NewRegistry()
	c.RegisterOps(reg)

	r := Report{APName: "ghost", MAC: wifi.Addr{0x66, 0, 0, 0, 0, 2}, BearingDeg: 10}
	for i := 0; i < 500; i++ {
		r.SeqNo = uint64(i)
		c.ingest(r)
	}
	batch := make([]Report, 50)
	for i := range batch {
		batch[i] = r
	}
	for i := 0; i < 10; i++ {
		c.ingestBatch(batch)
	}
	if n := logs.count("unknown AP"); n < 1 || n > 2 {
		t.Fatalf("1000 unknown-AP drops logged %d lines, want 1..2", n)
	}
	if got := c.Stats().UnknownAPDrops; got != 1000 {
		t.Fatalf("UnknownAPDrops = %d, want 1000", got)
	}
	if v := counterValue(t, reg, "secureangle_controller_unknown_ap_drops_total"); v != 1000 {
		t.Fatalf("unknown_ap_drops_total = %g, want 1000", v)
	}
}
