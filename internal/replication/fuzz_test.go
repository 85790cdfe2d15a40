package replication

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"testing"

	"attrank/internal/dataio"
)

// FuzzReplFrame throws arbitrary bytes at the segment-stream framing:
// a ReadFrame loop as the follower runs it (one threaded buffer), then
// parseHeartbeat on every accepted payload. Decoders must reject
// garbage — truncation, corrupt CRCs, oversized length claims — with an
// error and never panic, and whatever they accept must re-encode to the
// exact bytes consumed. Epoch frames' contents are FuzzReplEpochFrame's.
// Wired into verify.sh's fuzz mode.
func FuzzReplFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte { return encodeFrame(f, typ, payload) }
	valid := append(append(append([]byte(nil),
		frame(frameHeartbeat, heartbeatPayload(7, 4096))...),
		frame(frameData, []byte("wal record bytes"))...),
		blockFrames(f, testBlock(false, 3), 64)...)
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
		}
	})
}

// testBlock returns a block of n papers whose every float is distinct:
// a full epoch with indicators, or a push epoch.
func testBlock(push bool, n int) *epochBlock {
	vec := func(k int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(k*n+i) + 0.25
		}
		return v
	}
	if push {
		return &epochBlock{kind: blockPush, epoch: 9, staleness: 1e-9, pushes: 17, scores: vec(0)}
	}
	return &epochBlock{kind: blockFull, epoch: 8, papers: n, edges: 2 * n, rankedAt: 2011, iterations: 3, converged: true,
		residuals: []float64{0.5, 0.01, 1e-13}, scores: vec(0), attention: vec(1), recency: vec(2),
		influence: vec(3), prIterations: 29, prConverged: true}
}

// testIndicatorBlock returns the indicator block of testBlock(false,
// n)'s epoch: its influence vector and diagnostics.
func testIndicatorBlock(n int) *epochBlock {
	full := testBlock(false, n)
	return &epochBlock{kind: blockIndicators, epoch: full.epoch, influence: full.influence,
		prIterations: full.prIterations, prConverged: full.prConverged}
}

// blockBytes is b's whole encoding: its epoch frames' payloads, less
// their continuation bytes.
func blockBytes(tb testing.TB, b *epochBlock) []byte {
	r := bytes.NewReader(blockFrames(tb, b, chunkSize))
	var out, buf []byte
	for r.Len() > 0 {
		_, payload, nbuf, err := ReadFrame(r, buf)
		buf = nbuf
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, payload[1:]...)
	}
	return out
}

// blockFrames is b as writeBlock frames it with payloads of at most
// chunk bytes.
func blockFrames(tb testing.TB, b *epochBlock, chunk int) []byte {
	var out bytes.Buffer
	if err := writeBlock(&out, b, make([]byte, chunk)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// FuzzReplEpochFrame throws arbitrary bytes at the epoch-block decoders
// a follower runs on the stream, the bootstrap body and vectors.bin:
// decodeBlock on the bytes as one encoding, and readBlock on them as a
// sequence of epoch frames. Neither may panic. decodeBlock accepts only
// canonical encodings, so whatever it accepts re-encodes to the same
// bytes; a full block it accepts holds one value per paper in each
// vector. Wired into verify.sh's fuzz mode.
func FuzzReplEpochFrame(f *testing.F) {
	for _, b := range []*epochBlock{testBlock(false, 3), testBlock(true, 3), testIndicatorBlock(3)} {
		enc := blockBytes(f, b)
		f.Add(enc)
		f.Add(enc[:len(enc)-5])
		f.Add(blockFrames(f, b, 32))
	}
	noInfluence := testBlock(false, 2)
	noInfluence.influence, noInfluence.prIterations, noInfluence.prConverged = nil, 0, false
	f.Add(blockBytes(f, noInfluence))
	unconverged := testIndicatorBlock(2)
	unconverged.prConverged = false
	f.Add(blockBytes(f, unconverged))

	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := decodeBlock(data); err == nil {
			if re := blockBytes(t, b); !bytes.Equal(re, data) {
				t.Fatalf("block re-encodes to %x, decoded from %x", re, data)
			}
			checkBlockShape(t, b)
		}
		if b, err := readBlock(bytes.NewReader(data)); err == nil {
			checkBlockShape(t, b)
		}
	})
}

// checkBlockShape requires a decoded block's vectors to fit its corpus.
func checkBlockShape(t *testing.T, b *epochBlock) {
	t.Helper()
	switch b.kind {
	case blockPush:
		if len(b.scores) == 0 || b.attention != nil || b.influence != nil {
			t.Fatalf("push block with %d scores, attention %v, influence %v", len(b.scores), b.attention != nil, b.influence != nil)
		}
		return
	case blockIndicators:
		if len(b.influence) == 0 || b.scores != nil || b.attention != nil || b.papers != 0 {
			t.Fatalf("indicator block with %d influence values, scores %v, attention %v, %d papers",
				len(b.influence), b.scores != nil, b.attention != nil, b.papers)
		}
		return
	}
	for _, v := range [][]float64{b.scores, b.attention, b.recency} {
		if len(v) != b.papers || b.papers == 0 {
			t.Fatalf("full block of %d papers holds a vector of %d values", b.papers, len(v))
		}
	}
	if b.influence != nil && len(b.influence) != b.papers {
		t.Fatalf("full block of %d papers holds %d influence values", b.papers, len(b.influence))
	}
}

// FuzzReplState throws arbitrary bytes at the /repl/state decoder the
// follower bootstraps from (readState: header line, .anb corpus, the
// epoch's block as epoch frames). It must never panic, and an accepted
// body must be self-consistent: a corpus of exactly the header's paper
// count, and a full block of that corpus's papers and edges with one
// value per paper in each vector. Seeded with real leaders' bodies
// (their blocks in the epoch-frame layout; with indicators on, the
// block carries the influence) and truncations of them, and with a
// body whose block is an indicator block, which no bootstrap accepts.
// Wired into verify.sh's fuzz mode.
func FuzzReplState(f *testing.F) {
	_, srv := startLeader(f)
	body := stateBody(f, srv.URL)
	f.Add(body)
	header := bytes.IndexByte(body, '\n') + 1
	for _, cut := range []int{0, header - 1, header, header + 8, len(body) - 40, len(body) - 4, len(body) - 1} {
		f.Add(body[:cut])
	}
	_, impactSrv := startImpactLeader(f)
	withInfluence := stateBody(f, impactSrv.URL)
	f.Add(withInfluence)
	hdr, net, blk, _ := readState(bufio.NewReader(bytes.NewReader(withInfluence)))
	if blk.influence == nil {
		f.Fatal("an indicator leader's state body carries no influence")
	}
	var indicators bytes.Buffer
	indicators.Write(withInfluence[:bytes.IndexByte(withInfluence, '\n')+1])
	if err := dataio.WriteBinary(&indicators, net); err != nil {
		f.Fatal(err)
	}
	indicators.Write(blockFrames(f, &epochBlock{kind: blockIndicators, epoch: hdr.Epoch, influence: blk.influence,
		prIterations: blk.prIterations, prConverged: blk.prConverged}, chunkSize))
	if _, _, _, err := readState(bufio.NewReader(bytes.NewReader(indicators.Bytes()))); err == nil {
		f.Fatal("a state body with an indicator block decoded")
	}
	f.Add(indicators.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, net, blk, err := readState(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if net.N() != hdr.Papers || blk.papers != net.N() || blk.edges != net.Edges() {
			t.Fatalf("accepted a corpus of %d papers and %d edges under a header saying %d papers and a block saying %d and %d",
				net.N(), net.Edges(), hdr.Papers, blk.papers, blk.edges)
		}
		checkBlockShape(t, blk)
	})
}

// stateBody downloads a leader's /repl/state body, which must decode.
func stateBody(tb testing.TB, leader string) []byte {
	resp, err := http.Get(leader + statePath)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET %s: %s, %v", statePath, resp.Status, err)
	}
	if _, _, _, err := readState(bufio.NewReader(bytes.NewReader(body))); err != nil {
		tb.Fatalf("a real leader's state body does not decode: %v", err)
	}
	return body
}

func encodeFrame(tb testing.TB, typ byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := WriteFrame(&b, typ, payload); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}
