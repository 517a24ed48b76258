package journal

// The controller's journalled event vocabulary and its versioned binary
// codecs. Inputs (reports, alerts, releases) are what recovery and
// replay re-apply; outputs (decisions, directives, acks) are recorded
// for audit and for comparing a counterfactual replay against what the
// fleet actually did. Every payload opens with a codec version byte so
// old journals stay readable as fields are added.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// RecordType identifies a journal record's payload.
type RecordType uint8

const (
	// RecReport is one AP bearing report at controller ingest (input).
	RecReport RecordType = 1
	// RecAlert is one scored spoof verdict (input).
	RecAlert RecordType = 2
	// RecDecision is one fused fence decision (output).
	RecDecision RecordType = 3
	// RecDirective is one defense countermeasure order (output).
	RecDirective RecordType = 4
	// RecAck is one AP's applied-countermeasure acknowledgement (audit).
	RecAck RecordType = 5
	// RecRelease is one operator release (input).
	RecRelease RecordType = 6
	// RecSkip marks a compaction gap: the record's own LSN is the first
	// elided LSN and its payload carries the last. Readers advance the
	// expected sequence across the gap without dispatching anything.
	RecSkip RecordType = 7
	// RecEnroll is one enrollment-table mutation: an AP token digest
	// minted (Digest set) or revoked (Digest empty). Journalled so
	// tokens survive crash recovery and replicate to a standby — APs
	// re-home after failover without re-minting (audit/input).
	RecEnroll RecordType = 8
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecReport:
		return "report"
	case RecAlert:
		return "alert"
	case RecDecision:
		return "decision"
	case RecDirective:
		return "directive"
	case RecAck:
		return "ack"
	case RecRelease:
		return "release"
	case RecSkip:
		return "skip"
	case RecEnroll:
		return "enroll"
	default:
		return fmt.Sprintf("record(%d)", uint8(t))
	}
}

// eventVersion is the current payload codec version. Version 2 appends
// a 64-bit trace ID to the report/alert/decision/directive/release
// payloads (the distributed-tracing context an incident timeline joins
// on); version-1 journals decode with a zero trace.
const eventVersion = 2

// eventVersionV1 is the pre-trace codec; still readable.
const eventVersionV1 = 1

// ReportEvent is one bearing report as ingested: the wire Report with
// the AP's position resolved against the registry at ingest time, so
// replay does not depend on the (long-gone) registration state.
type ReportEvent struct {
	AP         string
	APPos      geom.Point
	MAC        wifi.Addr
	Seq        uint64
	BearingDeg float64
	// Trace is the packet's trace ID (0 on records written by pre-v2
	// codecs or untraced wire sessions).
	Trace uint64
}

// AckEvent is one applied-countermeasure acknowledgement.
type AckEvent struct {
	AP        string
	Directive defense.Directive
}

// ReleaseEvent is one operator release.
type ReleaseEvent struct {
	MAC wifi.Addr
	// Source names the release path ("operator" for the in-process API,
	// the AP name for wire requests).
	Source string
	// Trace is the trace ID of the evidence chain being released (0
	// when the release has no traced antecedent).
	Trace uint64
}

// --- primitive append/read helpers (big endian, the netproto idiom) ---

func putStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func getStr(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, errTruncated
	}
	return string(b[:n]), b[n:], nil
}

func putF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}

func putPoint(b []byte, p geom.Point) []byte { return putF64(putF64(b, p.X), p.Y) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

var errTruncated = fmt.Errorf("journal: truncated event payload")

type reader struct {
	b   []byte
	ver byte
	err error
}

func (r *reader) str() string {
	if r.err != nil {
		return ""
	}
	s, rest, err := getStr(r.b)
	if err != nil {
		r.err = err
		return ""
	}
	r.b = rest
	return s
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = errTruncated
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) point() geom.Point { return geom.Point{X: r.f64(), Y: r.f64()} }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = errTruncated
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) mac() wifi.Addr {
	var a wifi.Addr
	if r.err != nil {
		return a
	}
	if len(r.b) < 6 {
		r.err = errTruncated
		return a
	}
	copy(a[:], r.b[:6])
	r.b = r.b[6:]
	return a
}

// newReader returns the reader by value: a pointer would escape and
// cost one heap allocation per decoded event on every read path.
func newReader(b []byte) (reader, error) {
	if len(b) < 1 {
		return reader{}, errTruncated
	}
	if b[0] != eventVersion && b[0] != eventVersionV1 {
		return reader{}, fmt.Errorf("journal: unsupported event codec version %d", b[0])
	}
	return reader{b: b[1:], ver: b[0]}, nil
}

// trace reads the trailing trace ID a version-2 payload carries;
// version-1 payloads decode with a zero trace.
func (r *reader) trace() uint64 {
	if r.ver < 2 {
		return 0
	}
	return r.u64()
}

// --- event codecs ---

// EncodeReport encodes a ReportEvent payload.
func EncodeReport(ev ReportEvent) []byte {
	return AppendReport(make([]byte, 0, 1+2+len(ev.AP)+16+6+8+8+8), ev)
}

// AppendReport appends a ReportEvent payload to b — the arena form
// batched ingest uses to encode a whole flush of report records into
// one reused buffer instead of one allocation per report.
func AppendReport(b []byte, ev ReportEvent) []byte {
	b = append(b, eventVersion)
	b = putStr(b, ev.AP)
	b = putPoint(b, ev.APPos)
	b = append(b, ev.MAC[:]...)
	b = binary.BigEndian.AppendUint64(b, ev.Seq)
	b = putF64(b, ev.BearingDeg)
	return binary.BigEndian.AppendUint64(b, ev.Trace)
}

// DecodeReport decodes an EncodeReport payload.
func DecodeReport(b []byte) (ReportEvent, error) {
	r, err := newReader(b)
	if err != nil {
		return ReportEvent{}, err
	}
	ev := ReportEvent{AP: r.str(), APPos: r.point(), MAC: r.mac(), Seq: r.u64(), BearingDeg: r.f64()}
	ev.Trace = r.trace()
	return ev, r.err
}

// EncodeAlert encodes a scored spoof verdict payload.
func EncodeAlert(v defense.SpoofVerdict) []byte {
	b := make([]byte, 0, 1+2+len(v.AP)+6+1+8+8+8+2+len(v.Stage))
	b = append(b, eventVersion)
	b = putStr(b, v.AP)
	b = append(b, v.MAC[:]...)
	var flags byte
	if v.Flagged {
		flags |= 1
	}
	if v.HasBearing {
		flags |= 2
	}
	b = append(b, flags)
	b = putF64(b, v.Distance)
	b = putF64(b, v.Threshold)
	b = putF64(b, v.BearingDeg)
	b = putStr(b, v.Stage)
	return binary.BigEndian.AppendUint64(b, v.Trace)
}

// DecodeAlert decodes an EncodeAlert payload.
func DecodeAlert(b []byte) (defense.SpoofVerdict, error) {
	r, err := newReader(b)
	if err != nil {
		return defense.SpoofVerdict{}, err
	}
	var v defense.SpoofVerdict
	v.AP = r.str()
	v.MAC = r.mac()
	flags := r.byte()
	v.Flagged = flags&1 != 0
	v.HasBearing = flags&2 != 0
	v.Distance = r.f64()
	v.Threshold = r.f64()
	v.BearingDeg = r.f64()
	v.Stage = r.str()
	v.Trace = r.trace()
	return v, r.err
}

// EncodeDecision encodes a fused fence decision payload.
func EncodeDecision(d fusion.Decision) []byte {
	b := make([]byte, 0, 1+6+8+16+1+1+1+8*len(d.APs))
	b = append(b, eventVersion)
	b = append(b, d.MAC[:]...)
	b = binary.BigEndian.AppendUint64(b, d.Seq)
	b = putPoint(b, d.Pos)
	b = append(b, byte(d.Decision))
	b = putBool(b, d.Forced)
	b = append(b, byte(len(d.APs)))
	for _, ap := range d.APs {
		b = putStr(b, ap)
	}
	return binary.BigEndian.AppendUint64(b, d.Trace)
}

// DecodeDecision decodes an EncodeDecision payload.
func DecodeDecision(b []byte) (fusion.Decision, error) {
	r, err := newReader(b)
	if err != nil {
		return fusion.Decision{}, err
	}
	var d fusion.Decision
	d.MAC = r.mac()
	d.Seq = r.u64()
	d.Pos = r.point()
	d.Decision = locate.Decision(r.byte())
	d.Forced = r.bool()
	n := int(r.byte())
	if n > 0 && r.err == nil {
		d.APs = make([]string, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		d.APs = append(d.APs, r.str())
	}
	d.Trace = r.trace()
	return d, r.err
}

// EncodeDirective encodes a defense directive payload — the canonical
// byte form replay determinism is judged against.
func EncodeDirective(d defense.Directive) []byte {
	b := make([]byte, 0, 1+6+3+1+8*6+8+2+len(d.Reporter)+2+len(d.Stage))
	b = append(b, eventVersion)
	b = append(b, d.MAC[:]...)
	b = append(b, byte(d.Action), byte(d.From), byte(d.To))
	var flags byte
	if d.HasBearing {
		flags |= 1
	}
	if d.HasPos {
		flags |= 2
	}
	b = append(b, flags)
	b = putF64(b, d.BearingDeg)
	b = putPoint(b, d.Pos)
	b = putF64(b, d.Score)
	b = putF64(b, d.Distance)
	b = putF64(b, d.Threshold)
	b = binary.BigEndian.AppendUint64(b, uint64(d.TTL))
	b = putStr(b, d.Reporter)
	b = putStr(b, d.Stage)
	return binary.BigEndian.AppendUint64(b, d.Trace)
}

// DecodeDirective decodes an EncodeDirective payload.
func DecodeDirective(b []byte) (defense.Directive, error) {
	r, err := newReader(b)
	if err != nil {
		return defense.Directive{}, err
	}
	var d defense.Directive
	d.MAC = r.mac()
	d.Action = defense.Action(r.byte())
	d.From = defense.State(r.byte())
	d.To = defense.State(r.byte())
	flags := r.byte()
	d.HasBearing = flags&1 != 0
	d.HasPos = flags&2 != 0
	d.BearingDeg = r.f64()
	d.Pos = r.point()
	d.Score = r.f64()
	d.Distance = r.f64()
	d.Threshold = r.f64()
	d.TTL = time.Duration(r.u64())
	d.Reporter = r.str()
	d.Stage = r.str()
	d.Trace = r.trace()
	return d, r.err
}

// EncodeAck encodes an applied-countermeasure acknowledgement payload.
func EncodeAck(ev AckEvent) []byte {
	b := make([]byte, 0, 64)
	b = append(b, eventVersion)
	b = putStr(b, ev.AP)
	return putStr(b, string(EncodeDirective(ev.Directive)))
}

// DecodeAck decodes an EncodeAck payload.
func DecodeAck(b []byte) (AckEvent, error) {
	r, err := newReader(b)
	if err != nil {
		return AckEvent{}, err
	}
	var ev AckEvent
	ev.AP = r.str()
	inner := r.str()
	if r.err != nil {
		return AckEvent{}, r.err
	}
	ev.Directive, err = DecodeDirective([]byte(inner))
	return ev, err
}

// EncodeRelease encodes an operator-release payload.
func EncodeRelease(ev ReleaseEvent) []byte {
	b := make([]byte, 0, 1+6+2+len(ev.Source)+8)
	b = append(b, eventVersion)
	b = append(b, ev.MAC[:]...)
	b = putStr(b, ev.Source)
	return binary.BigEndian.AppendUint64(b, ev.Trace)
}

// DecodeRelease decodes an EncodeRelease payload.
func DecodeRelease(b []byte) (ReleaseEvent, error) {
	r, err := newReader(b)
	if err != nil {
		return ReleaseEvent{}, err
	}
	ev := ReleaseEvent{MAC: r.mac(), Source: r.str()}
	ev.Trace = r.trace()
	return ev, r.err
}

// SkipEvent is one compaction gap: the run of elided LSNs ends at End
// (inclusive). The carrying record's own LSN is the first elided LSN.
type SkipEvent struct {
	End uint64
}

// EncodeSkip encodes a compaction-gap payload.
func EncodeSkip(ev SkipEvent) []byte {
	b := make([]byte, 0, 1+8)
	b = append(b, eventVersion)
	return binary.BigEndian.AppendUint64(b, ev.End)
}

// DecodeSkip decodes an EncodeSkip payload.
func DecodeSkip(b []byte) (SkipEvent, error) {
	r, err := newReader(b)
	if err != nil {
		return SkipEvent{}, err
	}
	ev := SkipEvent{End: r.u64()}
	return ev, r.err
}

// EnrollEvent is one enrollment-table mutation. Digest is the sha256
// of the minted token (the plaintext token is never journalled); an
// empty Digest revokes the name.
type EnrollEvent struct {
	Name   string
	Digest []byte
}

// EncodeEnroll encodes an enrollment-mutation payload.
func EncodeEnroll(ev EnrollEvent) []byte {
	b := make([]byte, 0, 1+2+len(ev.Name)+2+len(ev.Digest))
	b = append(b, eventVersion)
	b = putStr(b, ev.Name)
	return putStr(b, string(ev.Digest))
}

// DecodeEnroll decodes an EncodeEnroll payload.
func DecodeEnroll(b []byte) (EnrollEvent, error) {
	r, err := newReader(b)
	if err != nil {
		return EnrollEvent{}, err
	}
	ev := EnrollEvent{Name: r.str()}
	if d := r.str(); d != "" {
		ev.Digest = []byte(d)
	}
	return ev, r.err
}

// DecodeEvent decodes a record's payload by its type, returning one of
// ReportEvent, defense.SpoofVerdict, fusion.Decision, defense.Directive,
// AckEvent, ReleaseEvent, SkipEvent, or EnrollEvent.
func DecodeEvent(rec Record) (any, error) {
	switch rec.Type {
	case RecReport:
		return DecodeReport(rec.Data)
	case RecAlert:
		return DecodeAlert(rec.Data)
	case RecDecision:
		return DecodeDecision(rec.Data)
	case RecDirective:
		return DecodeDirective(rec.Data)
	case RecAck:
		return DecodeAck(rec.Data)
	case RecRelease:
		return DecodeRelease(rec.Data)
	case RecSkip:
		return DecodeSkip(rec.Data)
	case RecEnroll:
		return DecodeEnroll(rec.Data)
	default:
		return nil, fmt.Errorf("journal: unknown record type %d", rec.Type)
	}
}

// --- the replay clock ---

// ReplayClock is a switchable time source for the fusion and defense
// engines: Set pins it to a recorded timestamp (recovery and replay
// drive it record by record), Live reverts it to wall time. The zero
// value reads wall time. Safe for concurrent use (engine sweepers read
// it from their tick loops).
type ReplayClock struct {
	ns atomic.Int64
}

// Now returns the pinned instant, or wall time when live.
func (c *ReplayClock) Now() time.Time {
	if n := c.ns.Load(); n != 0 {
		return time.Unix(0, n)
	}
	return time.Now()
}

// Set pins the clock to t.
func (c *ReplayClock) Set(t time.Time) { c.ns.Store(t.UnixNano()) }

// Live reverts the clock to wall time.
func (c *ReplayClock) Live() { c.ns.Store(0) }
