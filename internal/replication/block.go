package replication

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// An epoch block carries what a leader computed for one published
// epoch, so a follower publishes the epoch without solving it again
// (DESIGN.md §12). The same block follows the corpus in a /repl/state
// body, is sent on /repl/wal once the stream has shipped the epoch's
// marker, and is a follower's vectors.bin. A full epoch's indicators
// are computed after it is published, so on a stream its influence
// PageRank follows in an indicator block of its own, sent once the
// leader attaches them; a full block carries the influence only in a
// /repl/state body whose epoch has its indicators already, and in a
// vectors.bin saved after the attach.
//
// Encoding, integers and floats little-endian:
//
//	u8  kind ('F' full, 'P' push, 'I' indicators)
//	u64 epoch
//	full: u64 papers, u64 edges, i64 ranked_at, u64 iterations,
//	      u8 converged, u64 residual count, f64 residuals…,
//	      u8 flags (1 = influence present, 2 = influence converged),
//	      u64 influence iterations,
//	      u64 n, then n f64 each of scores, attention, recency and,
//	      when present, influence
//	push: f64 staleness, u64 pushes, u64 n, n f64 scores
//	indicators: u8 influence converged, u64 influence iterations,
//	      u64 n, n f64 influence
//
// The encoding travels as frameEpoch frames of at most chunkSize bytes,
// so no frame comes near MaxFramePayload however large the corpus:
// each payload is a continuation byte (1 when more frames of the block
// follow, 0 on its last) and the next slice of the encoding.
const (
	blockFull       byte = 'F'
	blockPush       byte = 'P'
	blockIndicators byte = 'I'

	flagInfluence          byte = 1
	flagInfluenceConverged byte = 2

	// maxBlockBytes bounds a reassembled block: 64 frames of the
	// largest size a reader accepts.
	maxBlockBytes = 64 * MaxFramePayload
)

// epochBlock is one published epoch's shipped state. A full epoch
// carries its exact vectors and convergence diagnostics, a push epoch
// only what the push changed: its scores, push count and bound. An
// indicator block carries a full epoch's influence PageRank.
type epochBlock struct {
	kind  byte // blockFull, blockPush or blockIndicators
	epoch uint64
	// Full epochs.
	papers, edges int
	rankedAt      int
	iterations    int
	converged     bool
	residuals     []float64
	attention     []float64
	recency       []float64
	// Full epochs (nil unless their indicators are attached) and
	// indicator blocks.
	influence    []float64
	prIterations int
	prConverged  bool
	// Push epochs.
	staleness float64
	pushes    int
	// Full and push epochs.
	scores []float64
}

// blockOf returns the block that ships r, a full block with r's
// influence when withInfluence is set and r carries its own
// indicators. It aliases r's vectors.
func blockOf(r *ingest.Ranking, withInfluence bool) *epochBlock {
	res := r.Result
	b := &epochBlock{kind: blockFull, epoch: r.Epoch, scores: res.Scores}
	if r.Incremental {
		b.kind, b.staleness, b.pushes = blockPush, r.Staleness, res.Iterations
		return b
	}
	b.papers, b.edges, b.rankedAt = r.Net.N(), r.Net.Edges(), r.RankedAt
	b.iterations, b.converged, b.residuals = res.Iterations, res.Converged, res.Residuals
	b.attention, b.recency = res.Attention, res.Recency
	if withInfluence && ownIndicators(r) {
		b.influence = r.Impact.Scores(impact.Influence)
		b.prIterations, b.prConverged = r.Impact.PRIterations, r.Impact.PRConverged
	}
	return b
}

// ownIndicators reports whether full epoch r carries its own
// indicators rather than an earlier epoch's.
func ownIndicators(r *ingest.Ranking) bool {
	return r.Impact != nil && r.ImpactEpoch == r.Epoch
}

// indicatorsOf returns the indicator block of full epoch r, which must
// carry its own indicators. It aliases r's influence vector.
func indicatorsOf(r *ingest.Ranking) *epochBlock {
	return &epochBlock{kind: blockIndicators, epoch: r.Epoch, influence: r.Impact.Scores(impact.Influence),
		prIterations: r.Impact.PRIterations, prConverged: r.Impact.PRConverged}
}

// blockWriter writes a block's encoding as epoch frames, building each
// payload in buf: the continuation byte, then up to len(buf)-1 bytes of
// the encoding. The first write error sticks.
type blockWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// frame sends the payload built so far, last or not, and starts the
// next.
func (bw *blockWriter) frame(last bool) {
	bw.buf[0] = boolByte(!last)
	if bw.err == nil {
		bw.err = WriteFrame(bw.w, frameEpoch, bw.buf)
	}
	bw.buf = bw.buf[:1]
}

// next returns the payload's next k bytes, sending the payload first
// if they would not fit.
func (bw *blockWriter) next(k int) []byte {
	if len(bw.buf)+k > cap(bw.buf) {
		bw.frame(false)
	}
	n := len(bw.buf)
	bw.buf = bw.buf[:n+k]
	return bw.buf[n:]
}

func (bw *blockWriter) u8(v byte)    { bw.next(1)[0] = v }
func (bw *blockWriter) u64(v uint64) { binary.LittleEndian.PutUint64(bw.next(8), v) }

// f64s writes v as many values to a frame as fit.
func (bw *blockWriter) f64s(v []float64) {
	for len(v) > 0 {
		k := min(len(v), (cap(bw.buf)-len(bw.buf))/8)
		if k == 0 {
			bw.frame(false)
			continue
		}
		p := bw.next(8 * k)
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
		}
		v = v[k:]
	}
}

// writeBlock sends b as epoch frames, building each payload in buf,
// whose capacity (at least 9 bytes) bounds a frame's payload.
func writeBlock(w io.Writer, b *epochBlock, buf []byte) error {
	bw := &blockWriter{w: w, buf: buf[:1]}
	switch b.kind {
	case blockIndicators:
		bw.u8(blockIndicators)
		bw.u64(b.epoch)
		bw.u8(boolByte(b.prConverged))
		bw.u64(uint64(b.prIterations))
		bw.u64(uint64(len(b.influence)))
		bw.f64s(b.influence)
		bw.frame(true)
		return bw.err
	case blockPush:
		bw.u8(blockPush)
		bw.u64(b.epoch)
		bw.u64(math.Float64bits(b.staleness))
		bw.u64(uint64(b.pushes))
		bw.u64(uint64(len(b.scores)))
		bw.f64s(b.scores)
		bw.frame(true)
		return bw.err
	}
	bw.u8(blockFull)
	bw.u64(b.epoch)
	bw.u64(uint64(b.papers))
	bw.u64(uint64(b.edges))
	bw.u64(uint64(int64(b.rankedAt)))
	bw.u64(uint64(b.iterations))
	bw.u8(boolByte(b.converged))
	bw.u64(uint64(len(b.residuals)))
	bw.f64s(b.residuals)
	var flags byte
	if b.influence != nil {
		flags |= flagInfluence
		if b.prConverged {
			flags |= flagInfluenceConverged
		}
	}
	bw.u8(flags)
	bw.u64(uint64(b.prIterations))
	bw.u64(uint64(len(b.scores)))
	for _, v := range [][]float64{b.scores, b.attention, b.recency, b.influence} {
		bw.f64s(v)
	}
	bw.frame(true)
	return bw.err
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// blockDecoder reads a block's encoding; the first failure sticks.
type blockDecoder struct {
	p   []byte
	err error
}

func (d *blockDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p) {
		d.err = fmt.Errorf("replication: epoch block truncated")
		return nil
	}
	v := d.p[:n]
	d.p = d.p[n:]
	return v
}

func (d *blockDecoder) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *blockDecoder) flag() bool {
	v := d.u8()
	if v > 1 {
		d.fail("flag byte %d", v)
	}
	return v == 1
}

func (d *blockDecoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// count reads a u64 count or size field that must fit an int32.
func (d *blockDecoder) count(what string) int {
	v := d.u64()
	if v > math.MaxInt32 {
		d.fail("%s %d", what, v)
		return 0
	}
	return int(v)
}

// vectorLength reads a block's vector length, which is never 0: no
// epoch of an empty corpus is published.
func (d *blockDecoder) vectorLength() int {
	n := d.count("vector length")
	if d.err == nil && n == 0 {
		d.fail("empty vectors")
	}
	return n
}

func (d *blockDecoder) f64s(n int) []float64 {
	if n == 0 {
		return nil
	}
	if d.err == nil && n > len(d.p)/8 {
		d.err = fmt.Errorf("replication: epoch block truncated")
	}
	raw := d.take(8 * n)
	if raw == nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return v
}

func (d *blockDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("replication: epoch block: "+format, args...)
	}
}

// decodeBlock parses one whole block encoding. It accepts exactly what
// writeBlock encodes: every field in range and no trailing bytes.
func decodeBlock(p []byte) (*epochBlock, error) {
	d := &blockDecoder{p: p}
	b := &epochBlock{kind: d.u8()}
	b.epoch = d.u64()
	switch b.kind {
	case blockIndicators:
		b.prConverged = d.flag()
		b.prIterations = d.count("influence iteration count")
		b.influence = d.f64s(d.vectorLength())
	case blockPush:
		b.staleness = math.Float64frombits(d.u64())
		b.pushes = d.count("push count")
		b.scores = d.f64s(d.vectorLength())
	case blockFull:
		b.papers = d.count("paper count")
		b.edges = d.count("edge count")
		rankedAt := int64(d.u64())
		if rankedAt < math.MinInt32 || rankedAt > math.MaxInt32 {
			d.fail("ranking time %d", rankedAt)
		}
		b.rankedAt = int(rankedAt)
		b.iterations = d.count("iteration count")
		b.converged = d.flag()
		b.residuals = d.f64s(d.count("residual count"))
		flags := d.u8()
		if flags&^(flagInfluence|flagInfluenceConverged) != 0 || flags == flagInfluenceConverged {
			d.fail("flags %#x", flags)
		}
		b.prIterations = d.count("influence iteration count")
		if flags&flagInfluence == 0 && b.prIterations != 0 {
			d.fail("influence iterations without an influence vector")
		}
		n := d.vectorLength()
		if d.err == nil && n != b.papers {
			d.fail("vectors of %d values for %d papers", n, b.papers)
		}
		b.scores, b.attention, b.recency = d.f64s(n), d.f64s(n), d.f64s(n)
		if flags&flagInfluence != 0 {
			b.influence = d.f64s(n)
			b.prConverged = flags&flagInfluenceConverged != 0
		}
	default:
		d.fail("kind %#x", b.kind)
	}
	if d.err == nil && len(d.p) > 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	if d.err != nil {
		return nil, d.err
	}
	return b, nil
}

// addBlockFrame appends one frameEpoch payload to the block being
// reassembled in acc and reports whether it was the block's last.
func addBlockFrame(acc, payload []byte) (_ []byte, last bool, err error) {
	if len(payload) == 0 || payload[0] > 1 {
		return acc, false, fmt.Errorf("replication: malformed epoch frame")
	}
	if len(acc)+len(payload)-1 > maxBlockBytes {
		return acc, false, fmt.Errorf("replication: epoch block over %d bytes", maxBlockBytes)
	}
	return append(acc, payload[1:]...), payload[0] == 0, nil
}

// readBlock reads the frameEpoch frames of one block from r and decodes
// it.
func readBlock(r io.Reader) (*epochBlock, error) {
	var buf, acc []byte
	for {
		typ, payload, nbuf, err := ReadFrame(r, buf)
		buf = nbuf
		if err != nil {
			return nil, fmt.Errorf("epoch block: %w", err)
		}
		if typ != frameEpoch {
			return nil, fmt.Errorf("epoch block: frame of type %q", typ)
		}
		var last bool
		if acc, last, err = addBlockFrame(acc, payload); err != nil {
			return nil, err
		}
		if last {
			return decodeBlock(acc)
		}
	}
}
