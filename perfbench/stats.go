package main

import (
	"bytes"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"secureangle/internal/ops"
)

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latencies collects one duration per operation of a timed region.
type latencies []time.Duration

// quantile returns the q-quantile (0 < q < 1) by nearest rank; the
// receiver must be sorted.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	i := int(q*float64(len(l)) + 0.5)
	if i >= len(l) {
		i = len(l) - 1
	}
	return l[i]
}

// summary sorts l and returns its p50, p90 and p99 in microseconds and
// its mean.
func (l latencies) summary() (p50, p90, p99, mean float64) {
	if len(l) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	return us(l.quantile(0.5)), us(l.quantile(0.9)), us(l.quantile(0.99)), us(sum) / float64(len(l))
}

// settle is the pause between set-up and a timed region: collect the
// set-up garbage so the region does not pay for it.
func settle() { runtime.GC() }

// lineCounter is the controller log sink: it counts lines and discards
// them, so the logging cost stays on the path and its volume shows.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte{'\n'})))
	return len(p), nil
}

// instruments is a snapshot of the process's own ops registry: counter
// and gauge values, and histogram count and sum, keyed by name plus
// labels. Diffing two snapshots gives what a timed region did.
type instruments map[string]float64

// snapshotInstruments walks ops.Default(). Histogram series appear
// twice: key+"#count" and key+"#sum" (seconds).
func snapshotInstruments() instruments {
	in := instruments{}
	ops.Default().Walk(func(s ops.Sample) {
		key := s.Name + "{" + s.Labels + "}"
		if s.Kind == ops.KindHistogram {
			in[key+"#count"] += float64(s.Count)
			in[key+"#sum"] += s.Sum
			return
		}
		in[key] += s.Value
	})
	return in
}

// delta returns after[key] - before[key].
func (after instruments) delta(before instruments, key string) float64 {
	return after[key] - before[key]
}

// histMeanUS is the mean observation, in microseconds, a histogram
// series gained between two snapshots (0 when it gained none).
func (after instruments) histMeanUS(before instruments, key string) float64 {
	n := after.delta(before, key+"#count")
	if n == 0 {
		return 0
	}
	return after.delta(before, key+"#sum") / n * 1e6
}

// readMem returns the current runtime.MemStats.
func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// perOp divides, returning 0 for an empty denominator.
func perOp(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// sumDelta sums the change of every series whose key starts with prefix.
func (after instruments) sumDelta(before instruments, prefix string) float64 {
	s := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			s += v - before[k]
		}
	}
	return s
}
