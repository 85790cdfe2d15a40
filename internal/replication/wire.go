package replication

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/graph"
	"attrank/internal/impact"
)

// Wire protocol (DESIGN.md §12). Two endpoints, mounted by the service
// layer under /repl/ on the leader:
//
//	GET /repl/state
//	    Bootstrap: one JSON header line (stateHeader), then the corpus
//	    in the .anb binary format, then the epoch's full block
//	    (block.go) as epoch frames, with its influence PageRank when the
//	    epoch's indicators are attached. The header carries the exact
//	    replication cursor the payload corresponds to.
//
//	GET /repl/wal?instance=I&gen=G&from=N
//	    Segment stream: an unbounded chunked response of frames, each
//	    [type byte][u32 payloadLen][u32 crc32(payload)][payload].
//	    Data frames ('d') carry raw WAL bytes starting at offset N of
//	    generation G — verbatim record bytes, so the follower's record
//	    parser is the WAL's. Epoch frames ('e') carry a published
//	    epoch's block, sent once the stream has shipped that epoch's
//	    marker, and the indicator block of the last full epoch, sent
//	    after its full block once the leader attaches its indicators
//	    (at stream open too, if attached by then). Heartbeat frames ('h') carry the leader's committed
//	    epoch and boundary offset (u64 + i64, little-endian) so an idle
//	    follower still tracks lag. An instance or generation mismatch
//	    answers 409: the follower's offsets are meaningless and it must
//	    re-bootstrap via /repl/state.
const (
	statePath = "/repl/state"
	walPath   = "/repl/wal"

	frameData      byte = 'd'
	frameEpoch     byte = 'e'
	frameHeartbeat byte = 'h'
)

// MaxFramePayload bounds one CRC frame; writers chunk well below this,
// readers reject anything above it as corruption.
const MaxFramePayload = 1 << 24

// WriteFrame emits one CRC-framed protocol frame:
// [type byte][u32 payloadLen][u32 crc32(payload)][payload], integers
// little-endian.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, verifying its CRC. The returned payload
// aliases buf when it fits; callers must copy bytes they keep, and
// thread the returned buffer into the next call. The header is read
// into buf too (a stack header array would escape through the io.Reader
// interface), so the follower's stream loop reuses one buffer for the
// whole segment stream instead of allocating per frame.
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload []byte, _ []byte, err error) {
	if cap(buf) < 9 {
		buf = make([]byte, 64)
	}
	hdr := buf[:9]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	typ = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	want := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxFramePayload {
		return 0, nil, buf, fmt.Errorf("replication: implausible frame of %d bytes", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, err
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, buf, fmt.Errorf("replication: frame crc mismatch (got %08x, want %08x)", got, want)
	}
	return typ, payload, buf, nil
}

// heartbeatPayload encodes the leader's committed epoch and boundary
// offset.
func heartbeatPayload(epoch uint64, offset int64) []byte {
	var p [16]byte
	binary.LittleEndian.PutUint64(p[0:8], epoch)
	binary.LittleEndian.PutUint64(p[8:16], uint64(offset))
	return p[:]
}

func parseHeartbeat(p []byte) (epoch uint64, offset int64, ok bool) {
	if len(p) != 16 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(p[0:8]), int64(binary.LittleEndian.Uint64(p[8:16])), true
}

// wireParams is the parameter fingerprint exchanged at bootstrap. It
// excludes Start (the tracker owns warm starts) and Workers, which only
// caps concurrency and never changes the Result. An older leader's
// "workers" key is ignored on decode.
type wireParams struct {
	Alpha          float64 `json:"alpha"`
	Beta           float64 `json:"beta"`
	Gamma          float64 `json:"gamma"`
	AttentionYears int     `json:"attention_years"`
	W              float64 `json:"w"`
	Tol            float64 `json:"tol"`
	MaxIter        int     `json:"max_iter"`
}

func wireParamsOf(p core.Params) wireParams {
	return wireParams{Alpha: p.Alpha, Beta: p.Beta, Gamma: p.Gamma,
		AttentionYears: p.AttentionYears, W: p.W, Tol: p.Tol, MaxIter: p.MaxIter}
}

// params materializes core.Params, with every local core.
func (wp wireParams) params() core.Params {
	return core.Params{Alpha: wp.Alpha, Beta: wp.Beta, Gamma: wp.Gamma,
		AttentionYears: wp.AttentionYears, W: wp.W, Tol: wp.Tol, MaxIter: wp.MaxIter,
		Workers: -1}
}

// stateHeader is the JSON line that precedes the bootstrap payload.
// The bootstrap is always anchored at a FULL epoch boundary (see
// ingest.ReplState): push epochs after Offset arrive on the stream.
// An older leader's "push_tol" key is ignored on decode.
type stateHeader struct {
	Instance uint64     `json:"instance"`
	Gen      uint64     `json:"gen"`
	Offset   int64      `json:"offset"`
	Epoch    uint64     `json:"epoch"`
	RankedAt int        `json:"ranked_at"`
	Papers   int        `json:"papers"`
	Params   wireParams `json:"params"`
	// Impact carries the leader's multi-indicator configuration (nil =
	// indicators disabled). Followers derive each full epoch's classes
	// from the shipped vectors with these exact values (DESIGN.md §15).
	Impact *wireImpact `json:"impact,omitempty"`
}

// wireImpact is the defaults-resolved impact.Config exchanged at
// bootstrap; presence implies Enabled. It carries no worker count: the
// influence PageRank's Result does not depend on one, and decoding
// ignores the "workers" field older leaders still send.
type wireImpact struct {
	ImpulseWindow int     `json:"impulse_window"`
	PRAlpha       float64 `json:"pr_alpha"`
	PRTol         float64 `json:"pr_tol"`
	PRMaxIter     int     `json:"pr_max_iter"`
}

func wireImpactOf(cfg impact.Config) *wireImpact {
	if !cfg.Enabled {
		return nil
	}
	cfg = cfg.WithDefaults()
	return &wireImpact{ImpulseWindow: cfg.ImpulseWindow, PRAlpha: cfg.PRAlpha,
		PRTol: cfg.PRTol, PRMaxIter: cfg.PRMaxIter}
}

// config materializes impact.Config.
func (wi *wireImpact) config() impact.Config {
	if wi == nil {
		return impact.Config{}
	}
	return impact.Config{Enabled: true, ImpulseWindow: wi.ImpulseWindow,
		PRAlpha: wi.PRAlpha, PRTol: wi.PRTol, PRMaxIter: wi.PRMaxIter}
}

func writeHeader(w io.Writer, hdr stateHeader) error {
	return json.NewEncoder(w).Encode(hdr) // one line, '\n'-terminated
}

// readState parses a /repl/state body: the header line, the corpus
// (whose size must match the header's Papers) and the epoch's full
// block, whose epoch, ranking time and vectors must match both. br must
// buffer at least 4 KiB, so that dataio.ReadBinary reads through it
// rather than wrapping it and buffering past the corpus.
func readState(br *bufio.Reader) (hdr stateHeader, net *graph.Network, blk *epochBlock, err error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return hdr, nil, nil, fmt.Errorf("header: %w", err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, nil, nil, fmt.Errorf("header: %w", err)
	}
	if net, err = dataio.ReadBinary(br); err != nil {
		return hdr, nil, nil, fmt.Errorf("corpus: %w", err)
	}
	if net.N() != hdr.Papers {
		return hdr, nil, nil, fmt.Errorf("corpus has %d papers, header says %d", net.N(), hdr.Papers)
	}
	if blk, err = readBlock(br); err != nil {
		return hdr, nil, nil, err
	}
	if blk.kind != blockFull || blk.epoch != hdr.Epoch || blk.rankedAt != hdr.RankedAt || blk.papers != net.N() || blk.edges != net.Edges() {
		return hdr, nil, nil, fmt.Errorf("epoch block (kind %q, epoch %d, %d papers, %d edges) does not match the header (epoch %d) and corpus (%d papers, %d edges)",
			blk.kind, blk.epoch, blk.papers, blk.edges, hdr.Epoch, net.N(), net.Edges())
	}
	return hdr, net, blk, nil
}
