package journal

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// asV1 rewrites a current-codec payload to its version-1 byte form:
// the version byte flipped and the trailing trace ID dropped — exactly
// what a pre-trace build wrote.
func asV1(b []byte) []byte {
	v1 := append([]byte(nil), b[:len(b)-8]...)
	v1[0] = eventVersionV1
	return v1
}

// TestEventCodecV1Compat: journals written by the pre-trace codec keep
// decoding — every traced event reads back field-for-field with a zero
// trace.
func TestEventCodecV1Compat(t *testing.T) {
	mac := wifi.MustParseAddr("aa:bb:cc:dd:ee:01")
	rep := ReportEvent{AP: "ap1", APPos: geom.Point{X: 1, Y: 2}, MAC: mac, Seq: 7, BearingDeg: 33.5, Trace: 0xdead}
	gotR, err := DecodeReport(asV1(EncodeReport(rep)))
	if err != nil {
		t.Fatal(err)
	}
	wantR := rep
	wantR.Trace = 0
	if gotR != wantR {
		t.Fatalf("v1 report = %+v, want %+v", gotR, wantR)
	}

	v := defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck", Trace: 0xbeef}
	gotV, err := DecodeAlert(asV1(EncodeAlert(v)))
	if err != nil {
		t.Fatal(err)
	}
	wantV := v
	wantV.Trace = 0
	if gotV != wantV {
		t.Fatalf("v1 alert = %+v, want %+v", gotV, wantV)
	}

	d := fusion.Decision{MAC: mac, Seq: 9, Pos: geom.Point{X: 3, Y: 4}, Decision: locate.Allow, APs: []string{"ap1", "ap2"}, Trace: 0xf00d}
	gotD, err := DecodeDecision(asV1(EncodeDecision(d)))
	if err != nil {
		t.Fatal(err)
	}
	if gotD.Trace != 0 || gotD.MAC != mac || gotD.Seq != 9 || len(gotD.APs) != 2 {
		t.Fatalf("v1 decision = %+v", gotD)
	}

	dir := defense.Directive{MAC: mac, Action: defense.ActionQuarantine, From: defense.StateMonitor, To: defense.StateQuarantine, Score: 3.5, Reporter: "ap1", Stage: "spoofcheck", Trace: 0xcafe}
	gotDir, err := DecodeDirective(asV1(EncodeDirective(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if gotDir.Trace != 0 || gotDir.MAC != mac || gotDir.Action != defense.ActionQuarantine || gotDir.Reporter != "ap1" {
		t.Fatalf("v1 directive = %+v", gotDir)
	}

	rel := ReleaseEvent{MAC: mac, Source: "operator", Trace: 0xfeed}
	gotRel, err := DecodeRelease(asV1(EncodeRelease(rel)))
	if err != nil {
		t.Fatal(err)
	}
	if gotRel.Trace != 0 || gotRel.MAC != mac || gotRel.Source != "operator" {
		t.Fatalf("v1 release = %+v", gotRel)
	}
}

// TestEventCodecTraceRoundTrip: the current codec carries the trace
// through every event type.
func TestEventCodecTraceRoundTrip(t *testing.T) {
	mac := wifi.MustParseAddr("aa:bb:cc:dd:ee:02")
	const tr = uint64(0x0123456789abcdef)
	if got, err := DecodeReport(EncodeReport(ReportEvent{AP: "a", MAC: mac, Trace: tr})); err != nil || got.Trace != tr {
		t.Fatalf("report trace = %x, err %v", got.Trace, err)
	}
	if got, err := DecodeAlert(EncodeAlert(defense.SpoofVerdict{AP: "a", MAC: mac, Trace: tr})); err != nil || got.Trace != tr {
		t.Fatalf("alert trace = %x, err %v", got.Trace, err)
	}
	if got, err := DecodeDecision(EncodeDecision(fusion.Decision{MAC: mac, Trace: tr})); err != nil || got.Trace != tr {
		t.Fatalf("decision trace = %x, err %v", got.Trace, err)
	}
	if got, err := DecodeDirective(EncodeDirective(defense.Directive{MAC: mac, Trace: tr})); err != nil || got.Trace != tr {
		t.Fatalf("directive trace = %x, err %v", got.Trace, err)
	}
	if got, err := DecodeAck(EncodeAck(AckEvent{AP: "a", Directive: defense.Directive{MAC: mac, Trace: tr}})); err != nil || got.Directive.Trace != tr {
		t.Fatalf("ack trace = %x, err %v", got.Directive.Trace, err)
	}
	if got, err := DecodeRelease(EncodeRelease(ReleaseEvent{MAC: mac, Trace: tr})); err != nil || got.Trace != tr {
		t.Fatalf("release trace = %x, err %v", got.Trace, err)
	}
}

// writeIncidentJournal records one full incident (plus an unrelated
// MAC's report) into dir with controlled timestamps, and returns the
// incident MAC and trace.
func writeIncidentJournal(t *testing.T, dir string, base time.Time) (wifi.Addr, uint64) {
	t.Helper()
	mac := wifi.MustParseAddr("66:00:00:00:00:01")
	other := wifi.MustParseAddr("02:00:00:00:00:05")
	const tr = uint64(0xfeedfacecafebeef)
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	recs := []Record{
		{Type: RecReport, TS: at(0), Data: EncodeReport(ReportEvent{AP: "ap1", MAC: mac, Seq: 1, BearingDeg: 60, Trace: tr})},
		{Type: RecReport, TS: at(1), Data: EncodeReport(ReportEvent{AP: "ap2", MAC: other, Seq: 1, BearingDeg: 40})},
		{Type: RecAlert, TS: at(3), Data: EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck", Trace: tr})},
		{Type: RecDecision, TS: at(5), Data: EncodeDecision(fusion.Decision{MAC: mac, Seq: 1, Pos: geom.Point{X: 30, Y: 2}, Decision: locate.Drop, APs: []string{"ap1", "ap2"}, Trace: tr})},
		{Type: RecDirective, TS: at(8), Data: EncodeDirective(defense.Directive{MAC: mac, Action: defense.ActionQuarantine, From: defense.StateAllow, To: defense.StateQuarantine, Score: 3.2, Reporter: "ap1", Stage: "spoofcheck", Trace: tr})},
		{Type: RecAck, TS: at(12), Data: EncodeAck(AckEvent{AP: "ap2", Directive: defense.Directive{MAC: mac, Action: defense.ActionQuarantine, Trace: tr}})},
		{Type: RecRelease, TS: at(20), Data: EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator", Trace: tr})},
	}
	for _, rec := range recs {
		if _, err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return mac, tr
}

// TestReconstructIncidentFlat: a flat single-partition journal yields
// the ordered, latency-annotated timeline, filtered by MAC or by
// trace, and the unrelated client's records stay out of it.
func TestReconstructIncidentFlat(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	mac, tr := writeIncidentJournal(t, dir, base)

	inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []RecordType{RecReport, RecAlert, RecDecision, RecDirective, RecAck, RecRelease}
	if len(inc.Entries) != len(wantTypes) {
		t.Fatalf("timeline has %d entries, want %d: %+v", len(inc.Entries), len(wantTypes), inc.Entries)
	}
	for i, e := range inc.Entries {
		if e.Type != wantTypes[i] {
			t.Fatalf("entry %d type = %s, want %s", i, e.Type, wantTypes[i])
		}
		if e.Trace != tr {
			t.Fatalf("entry %d trace = %x, want %x", i, e.Trace, tr)
		}
	}
	// Inter-stage latencies come from the record timestamps: the
	// alert landed 3ms after the report, the ack 4ms after the
	// directive fan-out.
	if inc.Entries[1].SincePrev != 3*time.Millisecond {
		t.Fatalf("report->alert latency = %v, want 3ms", inc.Entries[1].SincePrev)
	}
	if inc.Entries[4].SincePrev != 4*time.Millisecond {
		t.Fatalf("directive->ack latency = %v, want 4ms", inc.Entries[4].SincePrev)
	}
	if len(inc.Traces) != 1 || inc.Traces[0] != tr {
		t.Fatalf("joined traces = %v", inc.Traces)
	}

	// The same timeline is reachable from the trace ID alone.
	byTrace, err := ReconstructIncident(dir, IncidentQuery{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(byTrace.Entries) != len(wantTypes) {
		t.Fatalf("by-trace timeline has %d entries, want %d", len(byTrace.Entries), len(wantTypes))
	}

	// Render is the CLI face; pin the load-bearing fields.
	out := inc.Render()
	for _, want := range []string{"report", "alert", "directive", "ack", "release", "trace=feedfacecafebeef", "+3ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}

	// An empty query is a usage error, not an empty timeline.
	if _, err := ReconstructIncident(dir, IncidentQuery{}); err == nil {
		t.Fatal("empty query succeeded")
	}
}

// TestReconstructIncidentPartitioned: a dir/p0..pN tree merges
// per-partition streams by timestamp, and each entry names its stream.
func TestReconstructIncidentPartitioned(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 11, 0, 0, 0, time.UTC)
	mac := wifi.MustParseAddr("66:00:00:00:00:01")
	const tr = uint64(0x1111222233334444)

	// The incident MAC's stream lives in p1; p0 holds another client.
	j0, err := Open(filepath.Join(dir, "p0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := wifi.MustParseAddr("02:00:00:00:00:05")
	if _, err := j0.Append(Record{Type: RecReport, TS: base, Data: EncodeReport(ReportEvent{AP: "ap1", MAC: other, Seq: 1})}); err != nil {
		t.Fatal(err)
	}
	if err := j0.Close(); err != nil {
		t.Fatal(err)
	}
	j1, err := Open(filepath.Join(dir, "p1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Append(Record{Type: RecReport, TS: base.Add(time.Millisecond), Data: EncodeReport(ReportEvent{AP: "ap1", MAC: mac, Seq: 1, Trace: tr})}); err != nil {
		t.Fatal(err)
	}
	if _, err := j1.Append(Record{Type: RecDirective, TS: base.Add(4 * time.Millisecond), Data: EncodeDirective(defense.Directive{MAC: mac, Action: defense.ActionQuarantine, Reporter: "ap1", Trace: tr})}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Partitions != 2 {
		t.Fatalf("scanned %d partitions, want 2", inc.Partitions)
	}
	if len(inc.Entries) != 2 {
		t.Fatalf("timeline has %d entries, want 2: %+v", len(inc.Entries), inc.Entries)
	}
	for _, e := range inc.Entries {
		if e.Partition != 1 {
			t.Fatalf("entry from partition %d, want 1: %+v", e.Partition, e)
		}
	}
	if inc.Entries[1].SincePrev != 3*time.Millisecond {
		t.Fatalf("report->directive latency = %v, want 3ms", inc.Entries[1].SincePrev)
	}
}

// TestReconstructIncidentCompacted: RecSkip gaps left by compaction
// carry no incident evidence and do not break reconstruction.
func TestReconstructIncidentCompacted(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	mac, tr := writeIncidentJournal(t, dir, base)

	// Re-open and compact away benign bulk, then reconstruct from the
	// compacted segments.
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Roll to a fresh segment so the first one is compactable.
	if _, err := j.Append(Record{Type: RecRelease, TS: base.Add(time.Second), Data: EncodeRelease(ReleaseEvent{MAC: mac, Source: "decay", Trace: tr})}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Entries) != 7 {
		t.Fatalf("timeline has %d entries, want 7", len(inc.Entries))
	}
	if inc.Entries[6].Type != RecRelease || inc.Entries[6].AP != "decay" {
		t.Fatalf("final entry = %+v", inc.Entries[6])
	}
}

// TestIncidentSkipGap: a journal with an explicit compaction-gap record
// reconstructs around it.
func TestIncidentSkipGap(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 13, 0, 0, 0, time.UTC)
	mac := wifi.MustParseAddr("66:00:00:00:00:02")
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Type: RecReport, TS: base, Data: EncodeReport(ReportEvent{AP: "ap1", MAC: mac, Seq: 1, Trace: 5})}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Type: RecSkip, TS: base.Add(time.Millisecond), Data: EncodeSkip(SkipEvent{End: 2})}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Type: RecRelease, TS: base.Add(2 * time.Millisecond), Data: EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator", Trace: 5})}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	inc, err := ReconstructIncident(dir, IncidentQuery{MAC: mac, HasMAC: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Entries) != 2 {
		t.Fatalf("timeline has %d entries, want 2 (skip elided): %+v", len(inc.Entries), inc.Entries)
	}
}

// TestIncidentFailsOnUndecodableRecord: a query decodes every record it
// scans, not just the ones that match, so a record it cannot decode —
// a truncated payload of any type, or an unknown record type — fails
// the query with its LSN instead of silently dropping evidence.
func TestIncidentFailsOnUndecodableRecord(t *testing.T) {
	mac := wifi.MustParseAddr("66:00:00:00:00:03")
	other := wifi.MustParseAddr("66:00:00:00:00:04")
	d := defense.Directive{MAC: other, Action: defense.ActionQuarantine, Reporter: "ap1"}
	for _, bad := range []Record{
		{Type: RecReport, Data: EncodeReport(ReportEvent{AP: "ap1", MAC: other})[:9]},
		{Type: RecAlert, Data: EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: other})[:9]},
		{Type: RecDecision, Data: EncodeDecision(fusion.Decision{MAC: other, APs: []string{"ap1"}})[:20]},
		{Type: RecDirective, Data: EncodeDirective(d)[:30]},
		{Type: RecAck, Data: EncodeAck(AckEvent{AP: "ap2", Directive: d})[:12]},
		{Type: RecRelease, Data: EncodeRelease(ReleaseEvent{MAC: other, Source: "operator"})[:5]},
		{Type: RecEnroll, Data: []byte{eventVersion, 0}},
		{Type: RecordType(99), Data: []byte{eventVersion}},
	} {
		jdir := t.TempDir()
		j, err := Open(jdir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(Record{Type: RecReport, Data: EncodeReport(ReportEvent{AP: "ap1", MAC: mac, Seq: 1})}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(bad); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = ReconstructIncident(jdir, IncidentQuery{MAC: mac, HasMAC: true})
		if err == nil || !strings.Contains(err.Error(), "LSN 2:") {
			t.Fatalf("%v record with an undecodable payload: err = %v, want LSN 2 failure", bad.Type, err)
		}
	}
}
