package journal

// Native fuzzing of the event codecs: recovery and replay feed every
// journalled payload through these decoders, and a torn write or a
// corrupted segment can hand them arbitrary bytes (the CRC catches
// media rot, not software bugs writing bad frames). Decoders must
// never panic, and whatever they accept must re-encode to a canonical
// form that is a fixed point — the same property the netproto wire
// fuzzer pins.

import (
	"bytes"
	"testing"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/locate"
	"secureangle/internal/wifi"
)

// encodeEvent re-encodes a DecodeEvent result by its concrete type.
func encodeEvent(ev any) ([]byte, bool) {
	switch m := ev.(type) {
	case ReportEvent:
		return EncodeReport(m), true
	case defense.SpoofVerdict:
		return EncodeAlert(m), true
	case fusion.Decision:
		return EncodeDecision(m), true
	case defense.Directive:
		return EncodeDirective(m), true
	case AckEvent:
		return EncodeAck(m), true
	case ReleaseEvent:
		return EncodeRelease(m), true
	case SkipEvent:
		return EncodeSkip(m), true
	case EnrollEvent:
		return EncodeEnroll(m), true
	default:
		return nil, false
	}
}

func FuzzEventDecoders(f *testing.F) {
	mac := wifi.Addr{0x66, 0, 0, 0, 0, 5}
	dir := defense.Directive{
		MAC: mac, Action: defense.ActionNullSteer,
		From: defense.StateMonitor, To: defense.StateQuarantine,
		Reporter: "ap1", BearingDeg: 60, HasBearing: true,
		Pos: geom.Point{X: 3, Y: 4}, HasPos: true,
		Score: 5, Distance: 0.9, Threshold: 0.12, Stage: "spoofcheck",
		TTL: 10 * time.Minute,
	}
	seeds := []struct {
		typ  RecordType
		body []byte
	}{
		{RecReport, EncodeReport(ReportEvent{AP: "ap1", APPos: geom.Point{X: 1, Y: 2}, MAC: mac, Seq: 7, BearingDeg: 42.5})},
		{RecAlert, EncodeAlert(defense.SpoofVerdict{AP: "ap1", MAC: mac, Flagged: true, Distance: 0.9, Threshold: 0.12, BearingDeg: 60, HasBearing: true, Stage: "spoofcheck"})},
		{RecDecision, EncodeDecision(fusion.Decision{MAC: mac, Seq: 3, Pos: geom.Point{X: 12, Y: 8}, Decision: locate.Allow, APs: []string{"ap1", "ap2"}})},
		{RecDirective, EncodeDirective(dir)},
		{RecAck, EncodeAck(AckEvent{AP: "ap2", Directive: dir})},
		{RecRelease, EncodeRelease(ReleaseEvent{MAC: mac, Source: "operator"})},
		{RecReport, nil},            // empty payload
		{RecAck, []byte{0xff}},      // bad codec version
		{RecordType(99), []byte{1}}, // unknown record type
	}
	for _, s := range seeds {
		f.Add(uint8(s.typ), s.body)
	}
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		ev, err := DecodeEvent(Record{Type: RecordType(typ), Data: body})
		if err != nil {
			return // malformed input rejected — the contract
		}
		// Round-trip property: an accepted payload re-encodes to a
		// canonical body that decodes to the same value and re-encodes
		// identically (decoders tolerate trailing bytes, so one
		// normalisation pass is allowed before the fixed point).
		enc, ok := encodeEvent(ev)
		if !ok {
			t.Fatalf("decoded unknown event type %T", ev)
		}
		ev2, err := DecodeEvent(Record{Type: RecordType(typ), Data: enc})
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v\ninput: %x\nre-encoded: %x", ev, err, body, enc)
		}
		enc2, ok := encodeEvent(ev2)
		if !ok {
			t.Fatalf("re-decoded unknown event type %T", ev2)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical form is not a fixed point for %T:\n%x\nvs\n%x", ev, enc, enc2)
		}
	})
}
