package replication

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReplFrame throws arbitrary bytes at the segment-stream decoders:
// a ReadFrame loop as the follower runs it (one threaded buffer), then
// parseHeartbeat and readVector on every accepted payload. Decoders must
// reject garbage — truncation, corrupt CRCs, oversized length claims —
// with an error and never panic, and whatever they accept must re-encode
// to the exact bytes consumed. Wired into verify.sh's fuzz mode.
func FuzzReplFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte { return encodeFrame(f, typ, payload) }
	vector := func(v []float64) []byte {
		var b bytes.Buffer
		if err := writeVector(&b, v); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	valid := append(append(append([]byte(nil),
		frame(frameHeartbeat, heartbeatPayload(7, 4096))...),
		frame(frameData, []byte("wal record bytes"))...),
		frame(frameData, vector([]float64{0.25, 0.5, 0.25}))...)
	f.Add(valid)
	// A truncation, a flipped CRC byte and an implausible length claim.
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[7] ^= 0x40
	f.Add(flipped)
	huge := []byte{frameData, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(huge[1:5], MaxFramePayload+1)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		const wantN = 3
		r := bytes.NewReader(data)
		var buf []byte
		for {
			start := len(data) - r.Len()
			typ, payload, nbuf, err := ReadFrame(r, buf)
			buf = nbuf
			if err != nil {
				return
			}
			consumed := data[start : len(data)-r.Len()]
			if re := encodeFrame(t, typ, payload); !bytes.Equal(re, consumed) {
				t.Fatalf("frame re-encodes to %x, consumed %x", re, consumed)
			}
			if epoch, off, ok := parseHeartbeat(payload); ok {
				if re := heartbeatPayload(epoch, off); !bytes.Equal(re, payload) {
					t.Fatalf("heartbeat re-encodes to %x, payload %x", re, payload)
				}
			}
			vr := bytes.NewReader(payload)
			v, err := readVector(vr, wantN)
			if err != nil {
				continue
			}
			if len(v) != wantN {
				t.Fatalf("readVector returned %d values, want %d", len(v), wantN)
			}
			var re bytes.Buffer
			if err := writeVector(&re, v); err != nil {
				t.Fatal(err)
			}
			if used := payload[:len(payload)-vr.Len()]; !bytes.Equal(re.Bytes(), used) {
				t.Fatalf("vector re-encodes to %x, consumed %x", re.Bytes(), used)
			}
		}
	})
}

func encodeFrame(tb testing.TB, typ byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := WriteFrame(&b, typ, payload); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}
