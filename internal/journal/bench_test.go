package journal

import (
	"testing"
	"time"

	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// BenchmarkJournalAppend measures the hot append path — one report
// record per op — under each fsync policy. The default (interval)
// policy is the headline number: the acceptance bar is amortised
// append <= 2 us/op with bounded allocs; fsync-always shows what
// per-event durability costs on this disk.
func BenchmarkJournalAppend(b *testing.B) {
	ev := ReportEvent{
		AP: "ap1", APPos: geom.Point{X: 1, Y: 2},
		MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, Seq: 7, BearingDeg: 42.5,
	}
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"interval", Options{}},
		{"never", Options{Fsync: FsyncNever}},
		{"always", Options{Fsync: FsyncAlways}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			j, err := Open(b.TempDir(), bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = uint64(i)
				if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalAppendBatch measures the group-commit path: one
// 64-record AppendBatch per op (one lock, one buffer reservation, one
// flush/fsync decision), so ns/op divided by 64 compares against
// BenchmarkJournalAppend's per-record cost. Under `always`, the batch
// amortises its single barrier fsync over all 64 records.
func BenchmarkJournalAppendBatch(b *testing.B) {
	ev := ReportEvent{
		AP: "ap1", APPos: geom.Point{X: 1, Y: 2},
		MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, Seq: 7, BearingDeg: 42.5,
	}
	const batch = 64
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"interval", Options{}},
		{"always", Options{Fsync: FsyncAlways}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			j, err := Open(b.TempDir(), bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			recs := make([]Record, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := range recs {
					ev.Seq = uint64(i*batch + k)
					recs[k] = Record{Type: RecReport, Data: EncodeReport(ev)}
				}
				b.StartTimer()
				if _, err := j.AppendBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalAppendParallel hammers Append from GOMAXPROCS
// goroutines (the controller's per-connection handlers) under the
// default policy.
func BenchmarkJournalAppendParallel(b *testing.B) {
	j, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	ev := ReportEvent{AP: "ap1", MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, BearingDeg: 42.5}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReplicationCursor measures streaming-side throughput: the
// records/sec a leader's per-partition stream goroutine can pull
// through a Cursor in frame-budget batches — the ceiling on how fast a
// warm standby can catch up from cold over a fat pipe.
func BenchmarkReplicationCursor(b *testing.B) {
	dir := b.TempDir()
	j, err := Open(dir, Options{Clock: func() time.Time { return time.Unix(1000, 0) }})
	if err != nil {
		b.Fatal(err)
	}
	ev := ReportEvent{AP: "ap1", MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, BearingDeg: 42.5}
	const records = 10000
	for i := 0; i < records; i++ {
		ev.Seq = uint64(i)
		if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)}); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCursor(dir, 0)
		n := 0
		for {
			recs, err := c.Next(256 << 10) // the leader's frame budget
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			n += len(recs)
		}
		c.Close()
		if n != records {
			b.Fatalf("streamed %d/%d", n, records)
		}
	}
}

// BenchmarkJournalScan measures recovery-side throughput: records
// scanned per op over a pre-built multi-segment log.
func BenchmarkJournalScan(b *testing.B) {
	dir := b.TempDir()
	j, err := Open(dir, Options{Clock: func() time.Time { return time.Unix(1000, 0) }})
	if err != nil {
		b.Fatal(err)
	}
	ev := ReportEvent{AP: "ap1", MAC: wifi.Addr{0x66, 0, 0, 0, 0, 5}, BearingDeg: 42.5}
	const records = 10000
	for i := 0; i < records; i++ {
		ev.Seq = uint64(i)
		if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ev)}); err != nil {
			b.Fatal(err)
		}
	}
	j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := ReadRecords(dir, 0, func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("scanned %d/%d", n, records)
		}
	}
}

// incidentBenchPairs is the incident fixture's size: each pair is two
// AP reports and the fused decision, ~6,000 records in all.
const incidentBenchPairs = 2000

// writeIncidentFixture writes incidentBenchPairs report/report/decision
// triples over 64 clients into dir and returns a MAC the query can ask
// for, the record count, and how many of them carry that MAC.
func writeIncidentFixture(tb testing.TB, dir string) (mac wifi.Addr, records, matches int) {
	tb.Helper()
	j, err := Open(dir, Options{Fsync: FsyncNever, Clock: func() time.Time { return time.Unix(1000, 0) }})
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	mac = wifi.Addr{0x66, 0, 0, 0, 0, 7}
	recs := make([]Record, 0, 3)
	for i := 0; i < incidentBenchPairs; i++ {
		mac := wifi.Addr{0x66, 0, 0, 0, 0, byte(i % 64)}
		tr := uint64(i + 1)
		ts := base.Add(time.Duration(i) * time.Millisecond)
		recs = append(recs[:0],
			Record{Type: RecReport, TS: ts, Data: EncodeReport(ReportEvent{AP: "ap1", APPos: geom.Point{X: 0, Y: 0}, MAC: mac, Seq: uint64(i), BearingDeg: 30, Trace: tr})},
			Record{Type: RecReport, TS: ts, Data: EncodeReport(ReportEvent{AP: "ap2", APPos: geom.Point{X: 24, Y: 0}, MAC: mac, Seq: uint64(i), BearingDeg: 150, Trace: tr})},
			Record{Type: RecDecision, TS: ts, Data: EncodeDecision(fusion.Decision{MAC: mac, Seq: uint64(i), Pos: geom.Point{X: 12, Y: 8}, Decision: locate.Allow, APs: []string{"ap1", "ap2"}, Trace: tr})},
		)
		if _, err := j.AppendBatch(recs); err != nil {
			tb.Fatal(err)
		}
		if i%64 == 7 {
			matches += len(recs)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	return mac, 3 * incidentBenchPairs, matches
}

// BenchmarkReconstructIncident measures one by-MAC incident query over
// ~6,000 mixed report/decision records: segment scan, CRC, full decode
// of every record, and the timeline of the 96 that match.
func BenchmarkReconstructIncident(b *testing.B) {
	dir := b.TempDir()
	mac, records, _ := writeIncidentFixture(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
		if err != nil {
			b.Fatal(err)
		}
		if inc.Records != records {
			b.Fatalf("scanned %d/%d", inc.Records, records)
		}
	}
}

// TestReconstructIncidentAllocs pins the incident read path's
// allocation budget: at most 3 allocations per scanned record (the
// decoded events' strings and AP lists; the scan itself allocates
// nothing per record).
func TestReconstructIncidentAllocs(t *testing.T) {
	dir := t.TempDir()
	mac, records, matches := writeIncidentFixture(t, dir)
	var matched int
	allocs := testing.AllocsPerRun(5, func() {
		inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
		if err != nil {
			t.Fatal(err)
		}
		matched = len(inc.Entries)
	})
	if matched != matches {
		t.Fatalf("query matched %d entries, want %d", matched, matches)
	}
	if per := allocs / float64(records); per > 3 {
		t.Fatalf("%.0f allocs per query = %.2f per record, budget 3", allocs, per)
	}
}
