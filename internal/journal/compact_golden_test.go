package journal

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/locate"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/compact-golden from this build")

const compactGoldenDir = "testdata/compact-golden"

// TestCompactGoldenBytes compacts a journal whose sealed segments each
// span several scan windows and compares every rewritten segment byte
// for byte with a golden rewrite. The records compaction keeps are read
// from a reused scan window, so a kept record whose bytes were not
// copied out before the window moved on would corrupt the rewrite.
func TestCompactGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 40 << 10, MaxSegments: 64, Fsync: FsyncNever})
	defer j.Close()
	app := func(typ RecordType, data []byte) {
		if _, err := j.Append(Record{Type: typ, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	app(RecAlert, EncodeAlert(defense.SpoofVerdict{MAC: attackerMAC, AP: "ap1", Flagged: true, Distance: 9, Threshold: 3, Stage: "spoofcheck"}))
	app(RecDirective, EncodeDirective(defense.Directive{
		MAC: attackerMAC, Action: defense.ActionQuarantine,
		From: defense.StateMonitor, To: defense.StateQuarantine, Reporter: "ap1",
	}))
	// Every eighth record is the attacker's (kept), the rest benign bulk
	// (elided behind skip records).
	for i := 0; i < 1900; i++ {
		switch {
		case i%16 == 7:
			app(RecDecision, EncodeDecision(fusion.Decision{MAC: attackerMAC, Seq: uint64(i), Decision: locate.Drop, APs: []string{"ap1", "ap2"}, Trace: uint64(i)}))
		case i%8 == 7:
			app(RecReport, EncodeReport(ReportEvent{AP: "ap2", MAC: attackerMAC, Seq: uint64(i), BearingDeg: float64(i % 360), Trace: uint64(i)}))
		default:
			app(RecReport, EncodeReport(ReportEvent{AP: "ap1", MAC: benignMAC, Seq: uint64(i), BearingDeg: 42}))
		}
	}
	if _, err := j.SaveSnapshot(func(w io.Writer) error {
		_, err := w.Write([]byte("snap"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st, err := j.Compact(CompactPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsRewritten < 3 || st.SegmentsRewritten != st.SegmentsExamined {
		t.Fatalf("compaction rewrote %d of %d segments, want >= 3 and all", st.SegmentsRewritten, st.SegmentsExamined)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := segs[:st.SegmentsRewritten]
	if *updateGolden {
		if err := os.RemoveAll(compactGoldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(compactGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, seg := range rewritten {
		got, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(compactGoldenDir, seg.name)
		if *updateGolden {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			at := 0
			for at < len(got) && at < len(want) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s: compacted bytes differ from the golden rewrite at offset %d (%d vs %d bytes)", seg.name, at, len(got), len(want))
		}
	}
	if golden, _ := filepath.Glob(filepath.Join(compactGoldenDir, "wal-*.log")); len(golden) != len(rewritten) {
		t.Fatalf("%d golden segments for %d rewritten", len(golden), len(rewritten))
	}
}
