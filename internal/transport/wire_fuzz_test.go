package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

// FuzzPublishFrame checks the broker's only ingress decoder from both
// ends. A message built from the fuzz arguments survives
// EncodePublishV2 → frame → decode bit for bit. Arbitrary bytes, read
// as a frame stream and as a bare payload, never panic
// readFrameReuse, decodePublishV2Prefix, decodePublishInto or
// decodePubAck, and whatever does decode re-encodes and decodes to the
// same topic, readings, epoch and seq — through the same intern table
// the broker keeps per connection. The seed corpus lives in
// testdata/fuzz/FuzzPublishFrame.
func FuzzPublishFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, topic string, epoch, seq uint64, raw []byte) {
		rs := make([]sensor.Reading, len(raw)/16)
		for i := range rs {
			rs[i] = sensor.Reading{
				Time:  int64(binary.LittleEndian.Uint64(raw[16*i:])),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
			}
		}
		want := Message{Topic: sensor.Topic(topic), Readings: rs, Epoch: epoch, Seq: seq}
		var frame bytes.Buffer
		if err := writeFrame(&frame, framePublishV2, EncodePublishV2(want)); err != nil {
			t.Fatal(err)
		}
		intern := make(map[string]sensor.Topic)
		var buf []byte
		typ, payload, err := readFrameReuse(&frame, &buf)
		if err != nil || typ != framePublishV2 {
			t.Fatalf("frame round trip: type %d, err %v", typ, err)
		}
		got, err := decodeV2(payload, intern)
		if err != nil || !sameMessage(got, want) {
			t.Fatalf("round trip: got %+v (%v), want %+v", got, err, want)
		}

		checkPayload(t, raw, intern)
		stream := bytes.NewReader(raw)
		for {
			_, payload, err := readFrameReuse(stream, &buf)
			if err != nil {
				break
			}
			checkPayload(t, payload, intern)
		}
	})
}

// decodeV2 decodes a v2 PUBLISH payload the way the broker's serve loop
// does, into a private readings slice.
func decodeV2(payload []byte, intern map[string]sensor.Topic) (Message, error) {
	epoch, seq, off, err := decodePublishV2Prefix(payload)
	if err != nil {
		return Message{}, err
	}
	m, err := decodePublishInto(payload[off:], nil, intern)
	m.Epoch, m.Seq = epoch, seq
	return m, err
}

// checkPayload feeds one payload to every ingress decoder and fails
// unless each successful decode survives re-encoding unchanged.
func checkPayload(t *testing.T, payload []byte, intern map[string]sensor.Topic) {
	t.Helper()
	if m, err := decodeV2(payload, intern); err == nil {
		again, err := decodeV2(EncodePublishV2(m), intern)
		if err != nil || !sameMessage(again, m) {
			t.Fatalf("re-decode: got %+v (%v), want %+v", again, err, m)
		}
	}
	if epoch, seq, err := decodePubAck(payload); err == nil {
		e, s, err := decodePubAck(encodePubAck(nil, epoch, seq))
		if err != nil || e != epoch || s != seq {
			t.Fatalf("PubAck re-decode: got (%d, %d) %v, want (%d, %d)", e, s, err, epoch, seq)
		}
	}
}

// sameMessage compares messages with readings bit for bit, so NaN
// values compare equal to themselves.
func sameMessage(a, b Message) bool {
	if a.Topic != b.Topic || a.Epoch != b.Epoch || a.Seq != b.Seq || len(a.Readings) != len(b.Readings) {
		return false
	}
	for i := range a.Readings {
		x, y := a.Readings[i], b.Readings[i]
		if x.Time != y.Time || math.Float64bits(x.Value) != math.Float64bits(y.Value) {
			return false
		}
	}
	return true
}
