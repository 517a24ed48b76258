package netproto

import (
	"sync"
	"time"
)

// dropLogEvery is the least interval between two lines of one dropLog.
const dropLogEvery = 10 * time.Second

// dropLog rate-limits a log line that would otherwise fire once per
// dropped event (a decision no consumer drained, a report from an AP
// that never sent a Hello): the first drop logs at once, later ones at
// most once per dropLogEvery, with the count since the previous line.
// Drops after the last line stay unlogged until the next one; the
// controller's counters hold the exact totals. The zero value is
// ready; safe for concurrent use.
type dropLog struct {
	mu      sync.Mutex
	last    time.Time // when the previous line was logged (zero: never)
	pending uint64    // drops since that line
}

// note records n drops at now. It reports whether the caller should
// log a line now and, if so, how many drops that line covers.
func (d *dropLog) note(now time.Time, n uint64) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pending += n
	if !d.last.IsZero() && now.Sub(d.last) < dropLogEvery {
		return 0, false
	}
	n, d.pending, d.last = d.pending, 0, now
	return n, true
}
