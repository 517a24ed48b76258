package journal

// Compaction-aware retention: rewrite snapshot-covered sealed segments
// keeping only incident-relevant events, so replication and multi-day
// retention do not ship the benign bulk.
//
// What stays is chosen conservatively around replay determinism:
//
//   - Directives, acks, releases, and enrollment mutations are always
//     kept (they are the audit trail and the token table).
//   - Alerts are always kept: every alert feeds a defense score, so
//     dropping any would change a replay's directive sequence.
//   - Reports and decisions survive only for MACs that had an incident
//     (an alert or directive anywhere in retained history), and only
//     within a window around that MAC's incident span. Benign-only
//     MACs never touch the defense engine, so eliding their bulk
//     leaves the replayed directive sequence intact.
//
// Elided runs are bridged by RecSkip records, so the LSN sequence
// stays contiguous and both recovery scans and replication cursors
// walk compacted history without special cases.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"secureangle/internal/wifi"
)

// CompactPolicy tunes Compact. Zero fields take the defaults.
type CompactPolicy struct {
	// Window pads each incident MAC's [first, last] incident span:
	// reports/decisions for that MAC within the padded span are kept
	// (default 5 minutes).
	Window time.Duration
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// DefaultCompactWindow pads incident spans during compaction.
const DefaultCompactWindow = 5 * time.Minute

// CompactStats summarises one Compact run.
type CompactStats struct {
	// SegmentsExamined counts sealed snapshot-covered candidates;
	// SegmentsRewritten those that actually shrank.
	SegmentsExamined, SegmentsRewritten int
	// RecordsDropped counts elided records; BytesReclaimed the on-disk
	// shrinkage across rewritten segments.
	RecordsDropped int
	BytesReclaimed int64
}

type incidentSpan struct {
	first, last time.Time
}

// Compact rewrites every sealed segment wholly covered by the latest
// snapshot, dropping benign bulk per pol. The active segment and any
// segment the snapshot does not cover are left untouched (they are
// still recovery's replay tail). Safe to run while appends continue;
// rewritten segments are swapped in atomically.
func (j *Journal) Compact(pol CompactPolicy) (CompactStats, error) {
	if pol.Window <= 0 {
		pol.Window = DefaultCompactWindow
	}
	var st CompactStats

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return st, ErrClosed
	}
	snapLSN := j.snapLSN
	if err := j.syncLocked(); err != nil {
		j.mu.Unlock()
		return st, err
	}
	j.mu.Unlock()
	if snapLSN == 0 {
		return st, nil // nothing is snapshot-covered yet
	}

	// Pass 1: the incident index — every MAC with an alert or directive
	// anywhere in retained history, and its incident time span.
	incidents := map[wifi.Addr]*incidentSpan{}
	note := func(mac wifi.Addr, ts time.Time) {
		sp := incidents[mac]
		if sp == nil {
			incidents[mac] = &incidentSpan{first: ts, last: ts}
			return
		}
		if ts.Before(sp.first) {
			sp.first = ts
		}
		if ts.After(sp.last) {
			sp.last = ts
		}
	}
	err := ReadRecords(j.dir, 0, func(rec Record) error {
		switch rec.Type {
		case RecAlert:
			if v, err := DecodeAlert(rec.Data); err == nil {
				note(v.MAC, rec.TS)
			}
		case RecDirective:
			if d, err := DecodeDirective(rec.Data); err == nil {
				note(d.MAC, rec.TS)
			}
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("journal: compact index scan: %w", err)
	}

	keep := func(rec Record) bool {
		switch rec.Type {
		case RecReport:
			ev, err := DecodeReport(rec.Data)
			if err != nil {
				return true // undecodable: never drop what we don't understand
			}
			return inSpan(incidents[ev.MAC], rec.TS, pol.Window)
		case RecDecision:
			d, err := DecodeDecision(rec.Data)
			if err != nil {
				return true
			}
			return inSpan(incidents[d.MAC], rec.TS, pol.Window)
		default:
			return true
		}
	}

	// Pass 2: rewrite each covered sealed segment that shrinks.
	segs, err := listSegments(j.dir)
	if err != nil {
		return st, err
	}
	for i := 0; i+1 < len(segs); i++ {
		lastLSN := segs[i+1].firstLSN - 1
		if lastLSN > snapLSN {
			break // not wholly snapshot-covered (nor is anything later)
		}
		st.SegmentsExamined++
		dropped, reclaimed, err := j.compactSegment(segs[i], keep, pol)
		if err != nil {
			return st, err
		}
		if dropped > 0 {
			st.SegmentsRewritten++
			st.RecordsDropped += dropped
			st.BytesReclaimed += reclaimed
		}
	}
	return st, nil
}

func inSpan(sp *incidentSpan, ts time.Time, w time.Duration) bool {
	if sp == nil {
		return false
	}
	return !ts.Before(sp.first.Add(-w)) && !ts.After(sp.last.Add(w))
}

// compactSegment rewrites one sealed segment, eliding records keep
// rejects and bridging each elided run with a RecSkip. Returns the
// number of records dropped (0 = segment untouched) and the bytes
// reclaimed.
func (j *Journal) compactSegment(seg segmentInfo, keep func(Record) bool, pol CompactPolicy) (int, int64, error) {
	path := filepath.Join(j.dir, seg.name)
	before, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}

	var kept []Record
	var dropped int
	// A pending elided run: firstLSN/firstTS of the run, last elided LSN.
	var runStart, runEnd uint64
	var runTS time.Time
	flushRun := func() {
		if runStart == 0 {
			return
		}
		kept = append(kept, Record{
			LSN:  runStart,
			Type: RecSkip,
			TS:   runTS,
			Data: EncodeSkip(SkipEvent{End: runEnd}),
		})
		runStart, runEnd = 0, 0
	}
	_, err = scanSegment(path, seg.firstLSN, 0, func(rec Record) error {
		end := rec.LSN
		if rec.Type == RecSkip {
			if sk, err := DecodeSkip(rec.Data); err == nil {
				end = sk.End
			}
		}
		if keep(rec) {
			flushRun()
			rec.Data = append([]byte(nil), rec.Data...) // Data aliases the scan window
			kept = append(kept, rec)
			return nil
		}
		dropped++
		if runStart == 0 {
			runStart, runTS = rec.LSN, rec.TS
		}
		runEnd = end
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("journal: compact %s: %w", seg.name, err)
	}
	flushRun()
	if dropped == 0 {
		return 0, 0, nil
	}

	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, segMagic...)
	buf = binary.BigEndian.AppendUint16(buf, segVersion)
	buf = binary.BigEndian.AppendUint64(buf, seg.firstLSN)
	for _, rec := range kept {
		frameLen := frameFixed + len(rec.Data)
		start := len(buf)
		buf = binary.BigEndian.AppendUint32(buf, uint32(frameLen))
		buf = append(buf, 0, 0, 0, 0)
		buf = append(buf, byte(rec.Type))
		buf = binary.BigEndian.AppendUint64(buf, rec.LSN)
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.TS.UnixNano()))
		buf = append(buf, rec.Data...)
		binary.BigEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(buf[start+recHdrSize:], crcTable))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}

	// Swap under the journal lock so retention's file removals and the
	// rename cannot interleave.
	j.mu.Lock()
	err = os.Rename(tmp, path)
	j.mu.Unlock()
	if err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	syncDir(j.dir)
	reclaimed := before.Size() - int64(len(buf))
	if pol.Logf != nil {
		pol.Logf("journal: compacted %s: dropped %d records, reclaimed %d bytes", seg.name, dropped, reclaimed)
	}
	return dropped, reclaimed, nil
}
