// Package journal is SecureAngle's flight recorder: a segmented,
// CRC32C-framed, append-only write-ahead log of the controller's
// decision-relevant event stream (frame reports at ingest, spoof
// alerts, fused fence decisions, defense directives, directive acks,
// operator releases) plus periodic snapshots of the fusion and defense
// engines' state.
//
// Two consumers sit on the same log:
//
//   - Crash recovery (netproto.Controller.WithJournal): a restarted
//     controller restores the latest snapshot and re-applies the WAL
//     tail, so live quarantines survive a crash instead of handing
//     every quarantined attacker a free re-entry window.
//   - Deterministic replay (Replay): the recorded event stream re-runs
//     offline against fresh engines driven by the *recorded* clock,
//     optionally under a different DefensePolicy — "what would the
//     fleet have done if QuarantineScore were lower?" — emitting the
//     counterfactual directive sequence.
//
// Layout of a journal directory:
//
//	wal-%020d.log    segments, named by their first LSN
//	snap-%020d.snap  state snapshots, named by the LSN they cover
//
// Each segment opens with a 14-byte header (magic "SAWL", a uint16
// format version, the segment's first LSN) followed by records framed
//
//	uint32 length   (of the frame that follows)
//	uint32 crc32c   (Castagnoli, of the frame)
//	frame:  uint8 type | uint64 lsn | int64 unix-nanos | payload
//
// A torn tail (the classic crash artefact: a record cut mid-write, or
// buffered appends that never reached the disk) fails the length or CRC
// check and cleanly ends the scan; reopening always starts a fresh
// segment after the last durable record, so the log never appends into
// a possibly-torn file.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Segment framing.
const (
	segMagic   = "SAWL" // SecureAngle Write-ahead Log
	segVersion = 1
	segHdrSize = 4 + 2 + 8
	recHdrSize = 4 + 4
	// frameFixed is the frame's fixed prefix: type + lsn + timestamp.
	frameFixed = 1 + 8 + 8
)

// MaxRecordSize bounds one record's frame (the netproto message bound:
// nothing the controller journals is larger).
const MaxRecordSize = 1 << 20

// Defaults for zero Options fields.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultMaxSegments  = 64
	DefaultFsyncEvery   = 100 * time.Millisecond
)

// snapshotsKept is how many snapshot generations are retained (the
// latest serves recovery; one predecessor survives a torn latest).
const snapshotsKept = 2

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects the durability/latency tradeoff of Append.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) batches durability: appends land in a
	// buffered writer and a background flusher fsyncs every FsyncEvery.
	// A crash loses at most the last interval's events — and recovery
	// re-derives anything later APs re-report.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways flushes and fsyncs every append before returning:
	// nothing acknowledged is ever lost, at ~disk-latency per event.
	FsyncAlways
	// FsyncNever flushes only on segment rotation, snapshot, and Close;
	// the OS page cache decides when bytes reach the platter.
	FsyncNever
)

// String names the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("fsync(%d)", uint8(p))
	}
}

// Options tunes a Journal. Zero fields take the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: a segment past it is
	// sealed and a new one started (default 4 MiB).
	SegmentBytes int64
	// MaxSegments caps retained segments. Sealed segments wholly covered
	// by the latest snapshot are deleted oldest-first beyond the cap;
	// segments the latest snapshot does NOT cover are never deleted
	// (they are still needed for recovery), so retention only engages
	// once snapshots are being taken (default 64).
	MaxSegments int
	// Fsync selects the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval flush period (default 100ms).
	FsyncEvery time.Duration
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
	// Clock overrides time.Now for record timestamps (tests).
	Clock func() time.Time
}

// WithDefaults returns opts with zero fields replaced by defaults.
func (o Options) WithDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = DefaultMaxSegments
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Validate reports contradictions in already-defaulted Options.
func (o Options) Validate() error {
	if o.SegmentBytes < segHdrSize+recHdrSize+frameFixed {
		return fmt.Errorf("journal: SegmentBytes %d too small for one record", o.SegmentBytes)
	}
	if o.MaxSegments < 2 {
		return fmt.Errorf("journal: MaxSegments %d < 2", o.MaxSegments)
	}
	if o.FsyncEvery < 0 {
		return errors.New("journal: negative FsyncEvery")
	}
	return nil
}

// Record is one journal entry. Append assigns LSN (and TS when zero);
// scans return all fields as stored.
type Record struct {
	LSN  uint64
	Type RecordType
	TS   time.Time
	Data []byte
}

// ErrClosed reports an operation on a closed Journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an open journal directory with a single writer. Safe for
// concurrent Append from many goroutines (the controller's connection
// handlers); exactly one Journal may own a directory at a time.
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File // current segment (nil until the first append after open/rotate)
	segSize int64
	buf     []byte // userspace write buffer (flushed by policy)
	nextLSN uint64
	snapLSN uint64 // LSN covered by the latest snapshot (0 = none)
	durable uint64 // highest LSN known fsynced (group-commit watermark)
	dirty   bool   // bytes written since the last fsync
	closed  bool

	// syncMu is the group-commit barrier: committers that need an fsync
	// queue here while one of them performs it, then re-check the
	// durable watermark — concurrent FsyncAlways appenders share one
	// fdatasync instead of issuing one each. Lock order: syncMu before
	// mu, never the reverse.
	syncMu sync.Mutex

	// Operational counters, mutated under mu (the append path already
	// holds it) and surfaced by Stats for the ops endpoint.
	appends       uint64
	appendedBytes uint64
	fsyncs        uint64
	rotations     uint64
	snapTime      time.Time // when the latest snapshot completed (zero: none this run)

	done chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating as needed) the journal directory and positions
// the writer after the last durable record. A torn tail from a crash is
// tolerated: appending resumes in a fresh segment right after the last
// record that passes its CRC.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, opts: opts, nextLSN: 1, done: make(chan struct{})}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		last, err := scanSegment(filepath.Join(dir, seg.name), seg.firstLSN, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("journal: segment %s: %w", seg.name, err)
		}
		if last >= j.nextLSN {
			j.nextLSN = last + 1
		}
	}
	if snaps, err := listSnapshots(dir); err == nil && len(snaps) > 0 {
		j.snapLSN = snaps[len(snaps)-1]
	}
	if opts.Fsync == FsyncInterval {
		j.wg.Add(1)
		go j.flushLoop()
	}
	return j, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// LSN returns the last assigned log sequence number (0 before the
// first append of this process; recovery scans the directory instead).
func (j *Journal) LSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextLSN - 1
}

// SnapshotLSN returns the LSN the latest snapshot covers (0 = none).
func (j *Journal) SnapshotLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapLSN
}

func (j *Journal) logf(format string, args ...any) {
	if j.opts.Logf != nil {
		j.opts.Logf(format, args...)
	}
}

func (j *Journal) flushLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.done:
			return
		case <-t.C:
			if err := j.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				j.logf("journal: background sync: %v", err)
			}
		}
	}
}

// frameLocked frames one record into the userspace buffer at the given
// LSN, updating size/counter state. The caller holds mu and has
// validated the record size and opened a segment.
func (j *Journal) frameLocked(typ RecordType, lsn uint64, ts time.Time, data []byte) {
	frameLen := frameFixed + len(data)
	start := len(j.buf)
	j.buf = binary.BigEndian.AppendUint32(j.buf, uint32(frameLen))
	j.buf = append(j.buf, 0, 0, 0, 0) // crc placeholder
	j.buf = append(j.buf, byte(typ))
	j.buf = binary.BigEndian.AppendUint64(j.buf, lsn)
	j.buf = binary.BigEndian.AppendUint64(j.buf, uint64(ts.UnixNano()))
	j.buf = append(j.buf, data...)
	frame := j.buf[start+recHdrSize:]
	binary.BigEndian.PutUint32(j.buf[start+4:start+8], crc32.Checksum(frame, crcTable))
	j.segSize += int64(recHdrSize + frameLen)
	j.appends++
	j.appendedBytes += uint64(recHdrSize + frameLen)
	j.dirty = true
}

// commitWait blocks until every record up to lsn is fsynced, sharing
// the fsync with concurrent committers: whoever reaches the barrier
// first syncs for everyone queued behind it, and the rest find the
// durable watermark already past their LSN when they get through.
func (j *Journal) commitWait(lsn uint64) error {
	j.mu.Lock()
	done := j.durable >= lsn
	j.mu.Unlock()
	if done {
		return nil
	}
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.durable >= lsn {
		return nil // coalesced into an earlier committer's fsync
	}
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// Append writes one record, assigning its LSN (returned) and stamping
// TS with the journal clock when zero. Durability follows the fsync
// policy; the record is always at least in the userspace buffer when
// Append returns. Under FsyncAlways, concurrent appenders coalesce on
// the group-commit barrier and may share a single fsync.
func (j *Journal) Append(rec Record) (uint64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if len(rec.Data) > MaxRecordSize-frameFixed {
		j.mu.Unlock()
		return 0, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(rec.Data))
	}
	if rec.TS.IsZero() {
		rec.TS = j.opts.Clock()
	}
	if j.f == nil {
		if err := j.openSegmentLocked(); err != nil {
			j.mu.Unlock()
			return 0, err
		}
	}
	lsn := j.nextLSN
	j.frameLocked(rec.Type, lsn, rec.TS, rec.Data)
	j.nextLSN++
	if j.opts.Fsync != FsyncAlways && len(j.buf) >= 1<<16 {
		// Bound the userspace buffer between background syncs.
		if err := j.flushLocked(); err != nil {
			j.mu.Unlock()
			return 0, err
		}
	}
	if j.segSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			j.mu.Unlock()
			return 0, err
		}
	}
	j.mu.Unlock()
	if j.opts.Fsync == FsyncAlways {
		if err := j.commitWait(lsn); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// AppendBatch writes a batch of records with one lock acquisition, one
// buffer reservation, one CRC pass per record, and a single flush and
// fsync decision for the whole batch. LSNs are assigned contiguously
// starting at the returned value; zero timestamps are stamped with one
// clock reading shared by the batch. The on-disk byte stream is
// identical to len(recs) serial Appends (same framing, same rotation
// points record by record), so readers cannot tell group commits from
// serial ones. Under FsyncAlways the whole batch rides one barrier
// fsync, amortizing durability across its records and across
// concurrent committers.
func (j *Journal) AppendBatch(recs []Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	need := 0
	for i := range recs {
		if len(recs[i].Data) > MaxRecordSize-frameFixed {
			return 0, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(recs[i].Data))
		}
		need += recHdrSize + frameFixed + len(recs[i].Data)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	if free := cap(j.buf) - len(j.buf); free < need {
		nb := make([]byte, len(j.buf), len(j.buf)+need)
		copy(nb, j.buf)
		j.buf = nb
	}
	var ts time.Time // one clock reading for the whole batch, read lazily
	first := j.nextLSN
	for i := range recs {
		rts := recs[i].TS
		if rts.IsZero() {
			if ts.IsZero() {
				ts = j.opts.Clock()
			}
			rts = ts
		}
		if j.f == nil {
			if err := j.openSegmentLocked(); err != nil {
				j.mu.Unlock()
				return 0, err
			}
		}
		j.frameLocked(recs[i].Type, j.nextLSN, rts, recs[i].Data)
		j.nextLSN++
		if j.segSize >= j.opts.SegmentBytes {
			if err := j.rotateLocked(); err != nil {
				j.mu.Unlock()
				return 0, err
			}
		}
	}
	last := j.nextLSN - 1
	if j.opts.Fsync != FsyncAlways && len(j.buf) >= 1<<16 {
		if err := j.flushLocked(); err != nil {
			j.mu.Unlock()
			return 0, err
		}
	}
	j.mu.Unlock()
	if j.opts.Fsync == FsyncAlways {
		if err := j.commitWait(last); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// AppendRecord writes one record preserving its LSN and timestamp —
// the standby's replication sink, where the leader (not this journal)
// owns LSN assignment. The record must continue the local sequence:
// rec.LSN below the write position is ignored as an idempotent
// duplicate (replays after a reconnect), rec.LSN past it is an error
// (the leader streams contiguously, gaps included as RecSkip records).
// An empty journal accepts any starting LSN, bootstrapping a follower
// onto a leader whose history starts past LSN 1.
func (j *Journal) AppendRecord(rec Record) error {
	wait, err := j.appendRecordBuffered(rec)
	if err != nil || wait == 0 {
		return err
	}
	return j.commitWait(wait)
}

// appendRecordBuffered is AppendRecord up to (not including) the fsync:
// it returns the LSN the caller must commitWait on, or 0 when the
// policy demands no immediate fsync (or the record was a duplicate).
func (j *Journal) appendRecordBuffered(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if len(rec.Data) > MaxRecordSize-frameFixed {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(rec.Data))
	}
	if rec.LSN == 0 {
		return 0, fmt.Errorf("journal: AppendRecord needs an assigned LSN")
	}
	if j.virginLocked() {
		j.nextLSN = rec.LSN
	}
	if rec.LSN < j.nextLSN {
		return 0, nil // duplicate of an already-durable record
	}
	if rec.LSN > j.nextLSN {
		return 0, fmt.Errorf("journal: replication gap: record LSN %d, want %d", rec.LSN, j.nextLSN)
	}
	next := rec.LSN + 1
	if rec.Type == RecSkip {
		skip, err := DecodeSkip(rec.Data)
		if err != nil {
			return 0, fmt.Errorf("journal: bad skip record at LSN %d: %w", rec.LSN, err)
		}
		if skip.End < rec.LSN {
			return 0, fmt.Errorf("journal: skip record at LSN %d ends at %d", rec.LSN, skip.End)
		}
		next = skip.End + 1
	}
	if j.f == nil {
		if err := j.openSegmentLocked(); err != nil {
			return 0, err
		}
	}
	j.frameLocked(rec.Type, rec.LSN, rec.TS, rec.Data)
	j.nextLSN = next
	if j.opts.Fsync != FsyncAlways && len(j.buf) >= 1<<16 {
		if err := j.flushLocked(); err != nil {
			return 0, err
		}
	}
	if j.segSize >= j.opts.SegmentBytes {
		return 0, j.rotateLocked()
	}
	if j.opts.Fsync == FsyncAlways {
		return next - 1, nil
	}
	return 0, nil
}

// virginLocked reports whether the journal has no history at all — no
// appends this run, no open segment, and nothing durable from earlier
// runs (Open left nextLSN at 1 and no segments exist).
func (j *Journal) virginLocked() bool {
	if j.appends != 0 || j.f != nil || j.nextLSN != 1 || j.snapLSN != 0 {
		return false
	}
	segs, err := listSegments(j.dir)
	return err == nil && len(segs) == 0
}

// openSegmentLocked starts the segment whose first record will be
// nextLSN. An existing file of that name can only be the torn remnant
// of a crash before any of its records became durable (the open scan
// would otherwise have advanced nextLSN past it), so truncating is
// safe.
func (j *Journal) openSegmentLocked() error {
	name := segmentName(j.nextLSN)
	f, err := os.OpenFile(filepath.Join(j.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, segHdrSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint16(hdr, segVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, j.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	j.f, j.segSize, j.dirty = f, segHdrSize, true
	return nil
}

// flushLocked drains the userspace buffer to the file.
func (j *Journal) flushLocked() error {
	if len(j.buf) == 0 {
		return nil
	}
	if j.f == nil {
		return errors.New("journal: buffered records with no open segment")
	}
	if _, err := j.f.Write(j.buf); err != nil {
		return err
	}
	j.buf = j.buf[:0]
	return nil
}

// syncLocked flushes and fsyncs the current segment, then advances the
// group-commit durable watermark past every framed record.
func (j *Journal) syncLocked() error {
	if err := j.flushLocked(); err != nil {
		return err
	}
	if j.f != nil && j.dirty {
		if err := j.f.Sync(); err != nil {
			return err
		}
		j.dirty = false
		j.fsyncs++
	}
	if j.nextLSN > 0 {
		j.durable = j.nextLSN - 1
	}
	return nil
}

// Stats is an operational snapshot of the journal: append/fsync
// throughput counters (this process lifetime), the durable write
// position, and on-disk segment/snapshot state.
type Stats struct {
	// Appends counts records appended; AppendedBytes their framed size.
	Appends, AppendedBytes uint64
	// Fsyncs counts actual fdatasync calls (policy-coalesced).
	Fsyncs uint64
	// Rotations counts sealed segments.
	Rotations uint64
	// LSN is the last assigned record number; SnapshotLSN the position
	// the newest snapshot covers.
	LSN, SnapshotLSN uint64
	// SnapshotAt is when the newest snapshot completed (zero if none
	// was taken in this process lifetime).
	SnapshotAt time.Time
	// Segments counts WAL segment files currently on disk.
	Segments int
}

// Stats returns the journal's operational snapshot. Counter fields are
// consistent with each other; the segment count is read from the
// directory and may lag a concurrent rotation by one.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	st := Stats{
		Appends:       j.appends,
		AppendedBytes: j.appendedBytes,
		Fsyncs:        j.fsyncs,
		Rotations:     j.rotations,
		LSN:           j.nextLSN - 1,
		SnapshotLSN:   j.snapLSN,
		SnapshotAt:    j.snapTime,
	}
	dir := j.dir
	j.mu.Unlock()
	if segs, err := listSegments(dir); err == nil {
		st.Segments = len(segs)
	}
	return st
}

// Sync makes every appended record durable now, regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// rotateLocked seals the current segment and arranges for the next
// append to start a new one, then applies retention.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			return err
		}
		j.f = nil
		j.rotations++
	}
	j.trimLocked()
	return nil
}

// trimLocked deletes the oldest sealed segments beyond MaxSegments,
// but only those wholly covered by the latest snapshot — recovery must
// never lose records the snapshot does not embody.
func (j *Journal) trimLocked() {
	segs, err := listSegments(j.dir)
	if err != nil || len(segs) <= j.opts.MaxSegments {
		return
	}
	for i := 0; i+1 < len(segs) && len(segs)-i > j.opts.MaxSegments; i++ {
		lastLSN := segs[i+1].firstLSN - 1
		if lastLSN > j.snapLSN {
			break // not covered by a snapshot: still needed
		}
		if err := os.Remove(filepath.Join(j.dir, segs[i].name)); err != nil {
			j.logf("journal: retention: %v", err)
			break
		}
		j.logf("journal: retention dropped %s (through LSN %d)", segs[i].name, lastLSN)
	}
}

// Close flushes, fsyncs, and closes the journal. Further appends fail
// with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.done)
	err := j.syncLocked()
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	j.mu.Unlock()
	j.wg.Wait()
	return err
}

// --- Snapshots ---

// SaveSnapshot persists a state snapshot via write (handed an
// io.Writer) covering every record appended so far: the WAL is synced
// first, the snapshot lands in a temp file, and only a successful write
// renames it into place — a crash mid-snapshot leaves the previous
// generation intact. Older snapshot generations beyond snapshotsKept
// are deleted, and segment retention re-runs against the new coverage.
// Returns the covered LSN.
//
// Consistency contract: the LSN is captured BEFORE write reads engine
// state, and callers apply an event to their engines BEFORE appending
// its record (the netproto.Controller ordering). An event racing the
// snapshot is then either reflected in the captured state with its
// record at LSN <= the label, or lands in the replayed tail — possibly
// BOTH, never neither. Recovery therefore re-applies at worst: fusion
// reports are absorbed by the seq dedup window, a defense alert
// double-counts its score once (bounded, decaying). The only evidence
// a snapshot can miss is derived state still in flight inside the
// engines at the capture instant (a fused decision's fence verdict
// landing between the capture and the state read); that is a few
// packets' worth and re-accumulates.
func (j *Journal) SaveSnapshot(write func(io.Writer) error) (uint64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	lsn := j.nextLSN - 1
	if err := j.syncLocked(); err != nil {
		j.mu.Unlock()
		return 0, err
	}
	j.mu.Unlock()

	tmp := filepath.Join(j.dir, snapshotName(lsn)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotName(lsn))); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(j.dir)

	j.mu.Lock()
	if lsn > j.snapLSN {
		j.snapLSN = lsn
	}
	j.snapTime = j.opts.Clock()
	j.trimSnapshotsLocked()
	j.trimLocked()
	j.mu.Unlock()
	return lsn, nil
}

// trimSnapshotsLocked deletes snapshot generations beyond snapshotsKept.
func (j *Journal) trimSnapshotsLocked() {
	snaps, err := listSnapshots(j.dir)
	if err != nil {
		return
	}
	for len(snaps) > snapshotsKept {
		os.Remove(filepath.Join(j.dir, snapshotName(snaps[0])))
		snaps = snaps[1:]
	}
}

// Snapshots returns the directory's snapshot generations (their
// covered LSNs), oldest first. Recovery walks them newest-first so a
// corrupt latest generation can fall back to its predecessor.
func Snapshots(dir string) ([]uint64, error) { return listSnapshots(dir) }

// OpenSnapshot opens the snapshot generation covering lsn.
func OpenSnapshot(dir string, lsn uint64) (io.ReadCloser, error) {
	return os.Open(filepath.Join(dir, snapshotName(lsn)))
}

// LatestSnapshot opens the newest snapshot in dir, returning its
// covered LSN and a reader. ok is false when the directory holds no
// snapshot.
func LatestSnapshot(dir string) (lsn uint64, r io.ReadCloser, ok bool, err error) {
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		return 0, nil, false, err
	}
	lsn = snaps[len(snaps)-1]
	f, err := os.Open(filepath.Join(dir, snapshotName(lsn)))
	if err != nil {
		return 0, nil, false, err
	}
	return lsn, f, true, nil
}

// --- Scanning ---

// ReadRecords scans the directory's segments in LSN order and calls fn
// for every record with LSN > after. A torn tail ends the scan cleanly;
// a gap in the LSN sequence (a retention-trimmed or corrupt segment in
// the middle of the requested range) returns an error, because silently
// skipping events would corrupt recovery. fn returning an error aborts
// the scan with that error.
//
// rec.Data aliases the scan's read window and is valid only until fn
// returns: a callback that keeps a record past that must copy its Data
// (decoded events are safe to keep; the codecs copy what they return).
func ReadRecords(dir string, after uint64, fn func(Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	expect := uint64(0) // next LSN we must see; 0 = first segment sets it
	for i, seg := range segs {
		if i > 0 && seg.firstLSN != expect {
			return fmt.Errorf("journal: gap before segment %s (have through LSN %d)", seg.name, expect-1)
		}
		if i == 0 {
			if seg.firstLSN > after+1 && after > 0 {
				return fmt.Errorf("journal: records after LSN %d requested but history starts at %d", after, seg.firstLSN)
			}
			expect = seg.firstLSN
		}
		last, err := scanSegment(filepath.Join(dir, seg.name), seg.firstLSN, after, fn)
		if err != nil {
			var abort scanAbort
			if errors.As(err, &abort) {
				return abort.err // fn's own error, unwrapped
			}
			return fmt.Errorf("journal: segment %s: %w", seg.name, err)
		}
		if last >= expect {
			expect = last + 1
		}
	}
	return nil
}

// scanAbort distinguishes fn-aborts from frame errors inside
// scanSegment.
type scanAbort struct{ err error }

func (a scanAbort) Error() string { return a.err.Error() }

// scanWindow is the read window a segment scan parses frames from in
// place: one read per window instead of two per record.
const scanWindow = 16 << 10

var windowPool = sync.Pool{New: func() any {
	b := make([]byte, scanWindow)
	return &b
}}

// frameStatus is parseFrame's verdict on the bytes at a frame boundary.
type frameStatus uint8

const (
	frameOK    frameStatus = iota // a complete frame whose CRC checks
	frameShort                    // the header or frame is not all there (yet)
	frameBad                      // length out of range or CRC mismatch
)

// parseFrame parses the record framed at the start of b in place into
// *rec, whose Data then aliases b. On frameOK, n is the frame's full
// size (header included); on frameShort, n is how many bytes parsing
// needs before it can progress (the header, then the whole frame).
// *rec is written only on frameOK. (It is an out parameter because a
// returned Record costs the per-record hot loops a stack round trip.)
func parseFrame(b []byte, rec *Record) (n int, st frameStatus) {
	if len(b) < recHdrSize {
		return recHdrSize, frameShort
	}
	frameLen := binary.BigEndian.Uint32(b[0:4])
	if frameLen < frameFixed || frameLen > MaxRecordSize {
		return 0, frameBad // zero-fill, garbage, or a torn header
	}
	n = recHdrSize + int(frameLen)
	if len(b) < n {
		return n, frameShort
	}
	frame := b[recHdrSize:n:n]
	if crc32.Checksum(frame, crcTable) != binary.BigEndian.Uint32(b[4:8]) {
		return 0, frameBad
	}
	rec.Type = RecordType(frame[0])
	rec.LSN = binary.BigEndian.Uint64(frame[1:9])
	rec.TS = time.Unix(0, int64(binary.BigEndian.Uint64(frame[9:17])))
	rec.Data = frame[frameFixed:]
	return n, frameOK
}

// lastCovered returns the last LSN rec stands for: its own, or for a
// RecSkip the end of the compaction gap it bridges. ok is false for a
// malformed gap marker.
func lastCovered(rec *Record) (uint64, bool) {
	if rec.Type != RecSkip {
		return rec.LSN, true // the common case, kept inlinable
	}
	return skipEnd(rec)
}

func skipEnd(rec *Record) (uint64, bool) {
	skip, err := DecodeSkip(rec.Data)
	if err != nil || skip.End < rec.LSN {
		return 0, false
	}
	return skip.End, true
}

// scanSegment reads one segment, calling fn (when non-nil) for records
// with LSN > after, and returns the last valid LSN seen (firstLSN-1
// when the segment holds none). Torn or corrupt frames end the scan of
// this segment without error — the durable prefix is what counts.
//
// The segment is read through one pooled window of scanWindow bytes and
// parsed in place, so a record's Data aliases the window and is valid
// only while fn runs. A frame larger than the window grows it for the
// rest of the scan.
func scanSegment(path string, firstLSN, after uint64, fn func(Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	pooled := windowPool.Get().(*[]byte)
	defer windowPool.Put(pooled)
	buf := *pooled
	end, err := io.ReadFull(f, buf)
	eof := err != nil
	if end < segHdrSize {
		return firstLSN - 1, nil // torn before the header completed
	}
	hdr := buf[:segHdrSize]
	if string(hdr[:4]) != segMagic {
		return 0, fmt.Errorf("bad segment magic %q", hdr[:4])
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != segVersion {
		return 0, fmt.Errorf("unsupported segment version %d", v)
	}
	if got := binary.BigEndian.Uint64(hdr[6:14]); got != firstLSN {
		return 0, fmt.Errorf("header LSN %d does not match name (%d)", got, firstLSN)
	}
	last := firstLSN - 1
	pos := segHdrSize
	var rec Record
	for {
		n, st := parseFrame(buf[pos:end], &rec)
		if st == frameShort && !eof {
			// Slide the partial frame to the window's start, growing the
			// window for a frame it cannot hold, and refill behind it.
			partial := buf[pos:end]
			if n > len(buf) {
				buf = make([]byte, n)
			}
			end = copy(buf, partial)
			pos = 0
			m, err := io.ReadAtLeast(f, buf[end:], n-end)
			end += m
			eof = err != nil
			continue
		}
		if st != frameOK {
			return last, nil // end of segment, or a torn, zero-filled or corrupt tail
		}
		pos += n
		if rec.LSN != last+1 {
			return last, nil // sequence broke: treat as a tear
		}
		covered, ok := lastCovered(&rec)
		if !ok {
			return last, nil // malformed gap marker: treat as a tear
		}
		last = covered
		if fn != nil && rec.LSN > after {
			if err := fn(rec); err != nil {
				return last, scanAbort{err}
			}
		}
	}
}

// --- Directory helpers ---

type segmentInfo struct {
	name     string
	firstLSN uint64
}

func segmentName(firstLSN uint64) string { return fmt.Sprintf("wal-%020d.log", firstLSN) }

func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%020d.snap", lsn) }

// listSegments returns the directory's segments sorted by first LSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segmentInfo{name: name, firstLSN: n})
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i].firstLSN < segs[k].firstLSN })
	return segs, nil
}

// listSnapshots returns the directory's snapshot LSNs in ascending
// order.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, n)
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	return snaps, nil
}

// syncDir fsyncs a directory so a rename is durable (best effort — not
// every filesystem supports it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
