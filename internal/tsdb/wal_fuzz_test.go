package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
)

// walBytesFS serves one in-memory WAL file to replayWAL.
type walBytesFS struct {
	FS
	data []byte
}

func (f walBytesFS) ReadFile(string) ([]byte, error) { return f.data, nil }

// FuzzWALRecord checks the WAL record codec from both ends: readings
// built from the fuzz bytes survive appendWALRecord → replayWAL bit for
// bit, and arbitrary bytes — alone or as the tail after a valid record —
// never panic replayWAL or decodeWALPayload and never yield a record
// whose frame or CRC does not hold. The seed corpus lives in
// testdata/fuzz/FuzzWALRecord.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, topic string, raw []byte) {
		rs := make([]sensor.Reading, len(raw)/16)
		for i := range rs {
			rs[i] = sensor.Reading{
				Time:  int64(binary.LittleEndian.Uint64(raw[16*i:])),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
			}
		}
		rec := appendWALRecord(nil, sensor.Topic(topic), rs)
		n := 0
		err := replayWAL(walBytesFS{data: rec}, "", func(gotTopic sensor.Topic, got []sensor.Reading) {
			n++
			if gotTopic != sensor.Topic(topic) || !sameReadings(got, rs) {
				t.Fatalf("round trip: got %q %v, want %q %v", gotTopic, got, topic, rs)
			}
		})
		if err != nil || n != 1 {
			t.Fatalf("round trip: %d records, err %v", n, err)
		}

		_, _, _ = decodeWALPayload(raw)
		checkReplay(t, raw)
		checkReplay(t, append(rec, raw...))
	})
}

// checkReplay replays data and fails unless every yielded record is the
// next intact frame of data, decoded exactly as decodeWALPayload does.
func checkReplay(t *testing.T, data []byte) {
	t.Helper()
	off := 0
	err := replayWAL(walBytesFS{data: data}, "", func(topic sensor.Topic, rs []sensor.Reading) {
		rest := data[off:]
		if len(rest) < walHeaderSize {
			t.Fatalf("record yielded from a torn header at %d", off)
		}
		plen := binary.LittleEndian.Uint32(rest)
		if uint64(plen) > uint64(len(rest)-walHeaderSize) {
			t.Fatalf("record yielded from a torn payload at %d", off)
		}
		payload := rest[walHeaderSize : walHeaderSize+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			t.Fatalf("record yielded despite a failed CRC at %d", off)
		}
		wantTopic, want, err := decodeWALPayload(payload)
		if err != nil || topic != wantTopic || !sameReadings(rs, want) {
			t.Fatalf("record at %d: got %q %v, decoder says %q %v (%v)", off, topic, rs, wantTopic, want, err)
		}
		off += walHeaderSize + int(plen)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sameReadings compares readings bit for bit, so NaN values compare equal
// to themselves.
func sameReadings(a, b []sensor.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time != b[i].Time || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}
