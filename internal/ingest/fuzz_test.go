package ingest

import (
	"reflect"
	"testing"
)

// FuzzDecodeMutation throws arbitrary bytes at the WAL record decoder —
// the parser a follower runs on every shipped record. It must return an
// error on garbage and never panic, and every payload it accepts must
// re-encode and decode to an equal Mutation. Re-encoding need not
// reproduce the input bytes: a legacy epoch marker without its flags
// byte re-encodes with Flags == 0 spelled out. Wired into verify.sh's
// fuzz mode.
func FuzzDecodeMutation(f *testing.F) {
	for _, m := range []Mutation{
		paperMut("p1", 2020, []string{"ada", "grace"}, "icde"),
		paperMut("", -1, nil, ""),
		citeMut("p2", "p1"),
		{Kind: KindEpoch, Epoch: EpochMark{Epoch: 9, RankedAt: 2021, Count: 3, Flags: MarkPush | MarkReconcile}},
	} {
		payload, err := m.encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{KindCitation, 0xff, 0xff})
	f.Add([]byte{KindCitation, 0, 0, 0, 0, 7})

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMutation(payload)
		if err != nil {
			return
		}
		re, err := m.encode(nil)
		if err != nil {
			t.Fatalf("accepted %x but re-encode failed: %v", payload, err)
		}
		back, err := DecodeMutation(re)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", re, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip of %x: got %+v, want %+v", payload, back, m)
		}
	})
}
