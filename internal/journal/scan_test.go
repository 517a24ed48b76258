package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// scanPayloadSizes are the payload sizes of the window-edge segment:
// odd sizes so frames land across window boundaries at varying offsets,
// with one frame larger than the whole scan window in the middle.
var scanPayloadSizes = []int{37, 1500, 4099, 300, 7919, 90, 5003, scanWindow + 1024, 611, 2999, 64, 6007, 1201, 4099, 300, 2500}

// scanPayload is record i's deterministic payload.
func scanPayload(i, n int) []byte {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(i*31 + k*7)
	}
	return b
}

// writeScanSegment writes one segment holding a record per
// scanPayloadSizes entry and returns its path and each frame's end
// offset within the file.
func writeScanSegment(t *testing.T, dir string) (string, []int) {
	t.Helper()
	j := mustOpen(t, dir, Options{SegmentBytes: 1 << 20, Fsync: FsyncNever})
	ends := make([]int, len(scanPayloadSizes))
	off := segHdrSize
	for i, n := range scanPayloadSizes {
		if _, err := j.Append(Record{Type: RecReport, Data: scanPayload(i, n)}); err != nil {
			t.Fatal(err)
		}
		off += recHdrSize + frameFixed + n
		ends[i] = off
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(off) {
		t.Fatalf("segment size = %v, %v; want %d", fi, err, off)
	}
	return path, ends
}

// checkPrefix asserts recs are exactly the first n records of the
// window-edge segment.
func checkPrefix(t *testing.T, what string, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("%s: scanned %d records, want %d", what, len(recs), n)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.Type != RecReport || !bytes.Equal(rec.Data, scanPayload(i, scanPayloadSizes[i])) {
			t.Fatalf("%s: record %d = LSN %d type %v, %d bytes; want LSN %d, payload %d", what, i, rec.LSN, rec.Type, len(rec.Data), i+1, scanPayloadSizes[i])
		}
	}
}

// TestScanSegmentWindowEdges: the window-edge segment scans back whole,
// and the setup really does put frames across the first window's end
// and a frame past the window's size.
func TestScanSegmentWindowEdges(t *testing.T) {
	dir := t.TempDir()
	_, ends := writeScanSegment(t, dir)
	straddles, big := false, false
	for i, end := range ends {
		start := segHdrSize
		if i > 0 {
			start = ends[i-1]
		}
		straddles = straddles || (start < scanWindow && end > scanWindow)
		big = big || end-start > scanWindow
	}
	if !straddles || !big {
		t.Fatalf("segment layout misses the window edge (straddles %v, oversized %v)", straddles, big)
	}
	checkPrefix(t, "whole segment", collect(t, dir, 0), len(scanPayloadSizes))
}

// TestScanTornTailEveryOffset cuts the segment at every byte offset
// inside its last three records (and at a stride through the oversized
// frame): the scan must return exactly the records whose frames are
// complete.
func TestScanTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path, ends := writeScanSegment(t, dir)
	var cuts []int
	for off := ends[len(ends)-4]; off <= ends[len(ends)-1]; off++ {
		cuts = append(cuts, off)
	}
	for i, n := range scanPayloadSizes {
		if n > scanWindow {
			for off := ends[i] - recHdrSize - frameFixed - n; off < ends[i]; off += 97 {
				cuts = append(cuts, off)
			}
		}
	}
	// Truncation only shrinks the file: walk the cuts from the longest.
	sort.Sort(sort.Reverse(sort.IntSlice(cuts)))
	for _, cut := range cuts {
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		want := 0
		for want < len(ends) && ends[want] <= cut {
			want++
		}
		checkPrefix(t, fmt.Sprintf("cut at byte %d", cut), collect(t, dir, 0), want)
	}
}

// TestScanStopsBeforeCorruptCRC flips one byte of a frame's CRC — the
// first frame, one across the first window's end, the oversized one and
// the last — and expects the scan to end just before that frame.
func TestScanStopsBeforeCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	path, ends := writeScanSegment(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[int]bool{0: true, len(ends) - 1: true}
	for i, end := range ends {
		start := segHdrSize
		if i > 0 {
			start = ends[i-1]
		}
		if (start < scanWindow && end > scanWindow) || end-start > scanWindow {
			targets[i] = true
		}
	}
	for i := range targets {
		start := segHdrSize
		if i > 0 {
			start = ends[i-1]
		}
		bad := bytes.Clone(orig)
		bad[start+4+i%4] ^= 0x5a
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		checkPrefix(t, "crc flip", collect(t, dir, 0), i)
	}
}

// TestCursorMatchesReadRecords: the replication cursor and the recovery
// scan share one frame parser and must agree on the (LSN, Type, TS,
// Data) stream of a multi-segment directory with frames of every size,
// oversized ones included, and a compaction gap.
func TestCursorMatchesReadRecords(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SegmentBytes: 3 * scanWindow, Fsync: FsyncNever})
	for round := 0; round < 3; round++ {
		for i, n := range scanPayloadSizes {
			if _, err := j.Append(Record{Type: RecordType(1 + i%6), Data: scanPayload(round*100+i, n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := j.LSN() + 1
	if err := j.AppendRecord(Record{LSN: next, Type: RecSkip, TS: testClock()(), Data: EncodeSkip(SkipEvent{End: next + 9})}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Type: RecAlert, Data: scanPayload(7, 333)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("want several segments, have %d", len(segs))
	}

	fromScan := collect(t, dir, 0)
	var fromCursor []Record
	c := NewCursor(dir, 0)
	defer c.Close()
	for {
		recs, err := c.Next(8 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			rec.Data = bytes.Clone(rec.Data)
			fromCursor = append(fromCursor, rec)
		}
	}
	if len(fromScan) != len(fromCursor) || len(fromScan) != 3*len(scanPayloadSizes)+2 {
		t.Fatalf("scan %d records, cursor %d, want %d", len(fromScan), len(fromCursor), 3*len(scanPayloadSizes)+2)
	}
	for i := range fromScan {
		a, b := fromScan[i], fromCursor[i]
		if a.LSN != b.LSN || a.Type != b.Type || !a.TS.Equal(b.TS) || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("record %d: scan (%d %v %v %d bytes) != cursor (%d %v %v %d bytes)",
				i, a.LSN, a.Type, a.TS, len(a.Data), b.LSN, b.Type, b.TS, len(b.Data))
		}
	}
}

// FuzzSegmentScan feeds the scanner a valid segment header followed by
// arbitrary bytes. It must never panic, and every record it returns
// must be a frame of the input whose CRC checks, in LSN order. (Seeds
// stay small: the fuzzer slows to a crawl on inputs the size of a
// whole window, and the window-edge tests above cover those.)
func FuzzSegmentScan(f *testing.F) {
	// frame frames one record as the journal writes it.
	frame := func(typ RecordType, lsn uint64, ts int64, data []byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(frameFixed+len(data)))
		b = append(b, 0, 0, 0, 0, byte(typ))
		b = binary.BigEndian.AppendUint64(b, lsn)
		b = binary.BigEndian.AppendUint64(b, uint64(ts))
		b = append(b, data...)
		binary.BigEndian.PutUint32(b[4:8], crc32.Checksum(b[recHdrSize:], crcTable))
		return b
	}
	const ts = 1_700_000_000_000_000_000
	var valid []byte
	valid = append(valid, frame(RecReport, 1, ts, []byte("report"))...)
	valid = append(valid, frame(RecSkip, 2, ts, EncodeSkip(SkipEvent{End: 5}))...)
	valid = append(valid, frame(RecAlert, 6, ts, scanPayload(1, 300))...)
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), 0, 0, 0, 0, 0, 0))                           // zero-filled tail
	f.Add(append(bytes.Clone(valid), frame(RecAck, 8, ts, []byte("gap"))...))     // LSN gap
	f.Add(append(bytes.Clone(valid), frame(RecAck, 7, ts, nil)[:20]...))          // torn frame
	f.Add(frame(RecReport, 1, ts, scanPayload(2, scanWindow+100))[:64])           // torn frame larger than the window
	f.Add(append(frame(RecSkip, 1, ts, EncodeSkip(SkipEvent{End: 0})), valid...)) // malformed gap
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		hdr := append([]byte(segMagic), 0, segVersion)
		hdr = binary.BigEndian.AppendUint64(hdr, 1)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append(hdr, body...), 0o644); err != nil {
			t.Fatal(err)
		}
		off, next := 0, uint64(1)
		err := ReadRecords(dir, 0, func(rec Record) error {
			want := frame(rec.Type, rec.LSN, rec.TS.UnixNano(), rec.Data)
			if off+len(want) > len(body) || !bytes.Equal(body[off:off+len(want)], want) {
				t.Fatalf("record LSN %d at body offset %d is not the input's frame", rec.LSN, off)
			}
			if rec.LSN != next {
				t.Fatalf("record LSN %d, want %d", rec.LSN, next)
			}
			covered, ok := lastCovered(&rec)
			if !ok {
				t.Fatalf("malformed skip at LSN %d delivered", rec.LSN)
			}
			off, next = off+len(want), covered+1
			return nil
		})
		if err != nil {
			t.Fatalf("scan of a valid-header segment failed: %v", err)
		}
	})
}
