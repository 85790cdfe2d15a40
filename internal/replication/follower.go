package replication

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// errNoState distinguishes "first start, nothing on disk" from damaged
// state during recovery.
var errNoState = errors.New("replication: no follower state on disk")

// errResync marks errors that invalidate the follower's entire local
// state — leader restart, WAL rotation, a shipped record that does not
// decode, or a marker that contradicts the local chain. The run loop
// reacts by wiping and re-bootstrapping.
var errResync = errors.New("replication: full resync required")

func resyncf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), errResync)
}

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.1:8080".
	Leader string
	// Dir holds the follower's durable state (created if missing).
	Dir string
	// Expect, when non-nil, pins the ranking parameters: a leader
	// shipping different ones is an operator error, reported and
	// retried rather than silently adopted.
	Expect *core.Params
	// RetryMin/RetryMax bound the reconnect backoff (default 50ms/2s).
	// Each sleep is jittered ±20% so a restarted leader is not hit by
	// every follower in lockstep.
	RetryMin, RetryMax time.Duration
	// Client issues the bootstrap and stream requests. It must not set
	// a Timeout (streams are long-lived); nil uses a fresh client.
	Client *http.Client
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Info is a point-in-time snapshot of the follower's replication state,
// served by /v1/epoch and used by the /readyz lag gate.
type Info struct {
	Leader         string `json:"leader"`
	Connected      bool   `json:"connected"`
	LeaderEpoch    uint64 `json:"leader_epoch"`
	LocalEpoch     uint64 `json:"local_epoch"`
	EpochLag       uint64 `json:"epoch_lag"`
	LeaderOffset   int64  `json:"leader_offset"`
	LocalOffset    int64  `json:"local_offset"`
	Reconnects     uint64 `json:"reconnects"`
	FullResyncs    uint64 `json:"full_resyncs"`
	RecordsApplied uint64 `json:"records_applied"`
	LastError      string `json:"last_error,omitempty"`
}

// Follower replicates a leader's ranking state: bootstrap via
// /repl/state, then consume the WAL stream. At every epoch marker it
// checks the marker against its own log and compacts full markers; it
// publishes an epoch when the leader's block for it arrives, built from
// the shipped vectors through the leader's own epoch builders, so its
// published Rankings are bit-identical to the leader's.
type Follower struct {
	cfg    FollowerConfig
	dir    string
	client *http.Client
	logf   func(string, ...any)

	// Chain state below is owned by the run goroutine; Close/Kill read
	// it only after that goroutine has exited.
	instance, gen uint64
	// chain holds the last published full epoch (nil before the first
	// bootstrap); published is the last epoch published, full or push.
	chain     *ingest.Chain
	published uint64
	// base is the last applied full marker, whose compacted network the
	// next full marker compacts delta onto; delta holds the mutations
	// since it, of which delta[:sinceMark] precede the last applied
	// marker, whose epoch is lastMark. marks are the applied markers
	// not yet published, oldest first, from the next-to-last full
	// marker on: no later block can name an older one. held is a block
	// that arrived before its marker, heldInd an indicator block that
	// arrived before its full epoch was published, and fullAt is when
	// the last full epoch was.
	base      mark
	delta     []ingest.Mutation
	sinceMark int
	lastMark  uint64
	marks     []mark
	held      *epochBlock
	heldInd   *epochBlock
	fullAt    time.Time
	acc       []byte // epoch frames of a block not yet complete
	wal       *ingest.WAL
	pend      []byte // shipped bytes not yet forming a whole record
	streamOff int64  // leader offset after the last applied record
	// localWALOff is the local WAL offset after the last applied
	// record; markerLeaderOff and markerLocalOff are both offsets after
	// the marker of the last published full epoch.
	localWALOff     int64
	markerLeaderOff int64
	markerLocalOff  int64
	rng             *rand.Rand

	// impactCfg is the leader's indicator configuration (zero =
	// disabled), shipped at bootstrap: the chain derives each full
	// epoch's classes from the shipped vectors with it.
	impactCfg impact.Config

	params      atomic.Pointer[core.Params]
	ranking     atomic.Pointer[ingest.Ranking]
	connected   atomic.Bool
	leaderEpoch atomic.Uint64
	leaderOffA  atomic.Int64
	localEpochA atomic.Uint64
	localOffA   atomic.Int64
	reconnects  atomic.Uint64
	fullResyncs atomic.Uint64
	recApplied  atomic.Uint64
	lastErr     atomic.Value // string

	ctx      context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once
	done     chan struct{}
}

// StartFollower recovers any durable state under cfg.Dir, starts the
// replication loop, and returns immediately; readiness is observable
// via Info (epoch lag) and Ranking. Unusable on-disk state is wiped and
// re-bootstrapped rather than reported.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" || cfg.Dir == "" {
		return nil, fmt.Errorf("replication: follower needs Leader and Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 50 * time.Millisecond
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = 2 * time.Second
	}
	f := &Follower{
		cfg:    cfg,
		dir:    cfg.Dir,
		client: cfg.Client,
		logf:   cfg.Logf,
		rng:    rand.New(rand.NewSource(1)), // deterministic backoff jitter
		done:   make(chan struct{}),
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	if f.client.Timeout != 0 {
		return nil, fmt.Errorf("replication: follower client must not set a Timeout (streams are long-lived)")
	}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	if err := f.recover(); err != nil && err != errNoState {
		f.logf("repl: follower: discarding unusable state: %v", err)
		f.wipe()
	}
	go f.run()
	return f, nil
}

// Ranking returns the most recently published local view (nil before
// the first bootstrap completes).
func (f *Follower) Ranking() *ingest.Ranking { return f.ranking.Load() }

// Params returns the ranking parameters in effect (adopted from the
// leader at bootstrap; the zero value before that).
func (f *Follower) Params() core.Params {
	if p := f.params.Load(); p != nil {
		return *p
	}
	return core.Params{}
}

// Info snapshots the replication state.
func (f *Follower) Info() Info {
	info := Info{
		Leader:         f.cfg.Leader,
		Connected:      f.connected.Load(),
		LeaderEpoch:    f.leaderEpoch.Load(),
		LocalEpoch:     f.localEpochA.Load(),
		LeaderOffset:   f.leaderOffA.Load(),
		LocalOffset:    f.localOffA.Load(),
		Reconnects:     f.reconnects.Load(),
		FullResyncs:    f.fullResyncs.Load(),
		RecordsApplied: f.recApplied.Load(),
	}
	if info.LeaderEpoch > info.LocalEpoch {
		info.EpochLag = info.LeaderEpoch - info.LocalEpoch
	}
	if s, ok := f.lastErr.Load().(string); ok {
		info.LastError = s
	}
	return info
}

// WaitEpoch blocks until the follower has published at least epoch, or
// the timeout expires.
func (f *Follower) WaitEpoch(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.localEpochA.Load() < epoch || f.ranking.Load() == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("replication: epoch %d not reached in %s (at %d, last error: %q)",
				epoch, timeout, f.localEpochA.Load(), f.Info().LastError)
		}
		select {
		case <-f.done:
			return fmt.Errorf("replication: follower stopped before reaching epoch %d", epoch)
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Close stops replication, persists the marker-boundary state so the
// next start resumes without a bootstrap, and closes the local WAL.
func (f *Follower) Close() error {
	f.stopOnce.Do(f.cancel)
	<-f.done
	var err error
	if f.wal != nil {
		if serr := f.saveState(); serr != nil {
			err = serr
		}
		if cerr := f.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		f.wal = nil
	}
	return err
}

// Kill stops replication WITHOUT persisting state — a crash simulation
// for recovery tests: the durable trio stays at its last save point and
// the local WAL keeps whatever was fsync'd, exactly what a power cut
// leaves behind.
func (f *Follower) Kill() {
	f.stopOnce.Do(f.cancel)
	<-f.done
	if f.wal != nil {
		f.wal.Close()
		f.wal = nil
	}
}

// run is the reconnect loop: one session per iteration, exponential
// backoff with deterministic ±20% jitter between attempts, reset
// whenever a session makes progress.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.RetryMin
	for {
		if f.ctx.Err() != nil {
			return
		}
		before := f.recApplied.Load()
		err := f.session()
		f.connected.Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if err != nil {
			f.lastErr.Store(err.Error())
			f.logf("repl: follower: %v", err)
			if errors.Is(err, errResync) {
				f.wipe()
				f.fullResyncs.Add(1)
				mFullResyncs.Inc()
			}
		}
		if f.recApplied.Load() > before {
			backoff = f.cfg.RetryMin
		}
		f.reconnects.Add(1)
		mReconnects.Inc()
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(jitter(backoff, f.rng)):
		}
		if backoff *= 2; backoff > f.cfg.RetryMax {
			backoff = f.cfg.RetryMax
		}
	}
}

// jitter spreads d by ±20% using the follower's deterministic source.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rng.Float64()))
}

// session runs one leader connection: bootstrap when no local state
// exists, then consume the WAL stream until it breaks.
func (f *Follower) session() error {
	if f.wal == nil {
		if err := f.bootstrap(); err != nil {
			return err
		}
	}
	return f.stream()
}

// bootstrap downloads /repl/state, starts a fresh local WAL at the
// shipped marker boundary and publishes the shipped epoch.
func (f *Follower) bootstrap() error {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Leader+statePath, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bootstrap: leader answered %s", resp.Status)
	}
	hdr, net, blk, err := readState(bufio.NewReaderSize(resp.Body, 1<<16))
	if err != nil {
		return fmt.Errorf("bootstrap %w", err)
	}
	if f.cfg.Expect != nil && wireParamsOf(*f.cfg.Expect) != hdr.Params {
		return fmt.Errorf("bootstrap: leader params %+v differ from expected %+v", hdr.Params, wireParamsOf(*f.cfg.Expect))
	}
	// Fresh local WAL: replication state before this instant is gone.
	walPath := filepath.Join(f.dir, walFile)
	if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	wal, err := ingest.OpenWAL(walPath, nil)
	if err != nil {
		return err
	}
	f.wal = wal
	f.pend = nil
	f.instance, f.gen = hdr.Instance, hdr.Gen
	f.streamOff, f.localWALOff = hdr.Offset, wal.Size()
	f.localOffA.Store(hdr.Offset)
	start := mark{epoch: hdr.Epoch, rankedAt: hdr.RankedAt, net: net, leaderOff: hdr.Offset, localOff: wal.Size()}
	if err := f.start(hdr.Params, hdr.Impact, start, blk); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	if err := f.saveState(); err != nil {
		return fmt.Errorf("bootstrap save: %w", err)
	}
	f.logf("repl: follower bootstrapped: epoch %d, %d papers, streaming from offset %d",
		hdr.Epoch, hdr.Papers, hdr.Offset)
	return nil
}

// stream consumes the leader's WAL stream from streamOff until it
// breaks. A clean break (leader restart, network) returns nil and the
// run loop reconnects; a 409 or a record-level contradiction returns an
// errResync.
func (f *Follower) stream() error {
	url := fmt.Sprintf("%s%s?instance=%d&gen=%d&from=%d&have=%d", f.cfg.Leader, walPath, f.instance, f.gen, f.streamOff, f.published)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("stream connect: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return resyncf("stream: leader instance or wal generation changed")
	default:
		return fmt.Errorf("stream: leader answered %s", resp.Status)
	}
	f.connected.Store(true)
	// Anything buffered from a previous stream was never applied; the
	// leader re-ships from streamOff, which is exactly after the last
	// applied record.
	f.pend, f.acc = f.pend[:0], f.acc[:0]
	var buf []byte
	for {
		typ, payload, nbuf, err := ReadFrame(resp.Body, buf)
		buf = nbuf
		if err != nil {
			if f.ctx.Err() != nil {
				return nil
			}
			// Includes CRC failures: transport damage, not state damage.
			// Reconnecting re-requests from the last applied record.
			return fmt.Errorf("stream: %w", err)
		}
		switch typ {
		case frameHeartbeat:
			epoch, off, ok := parseHeartbeat(payload)
			if !ok {
				return fmt.Errorf("stream: malformed heartbeat of %d bytes", len(payload))
			}
			f.leaderEpoch.Store(epoch)
			f.leaderOffA.Store(off)
			f.observeLag()
		case frameData:
			mBytesReceived.Add(int64(len(payload)))
			if err := f.ingestBytes(payload); err != nil {
				return err
			}
		case frameEpoch:
			var last bool
			if f.acc, last, err = addBlockFrame(f.acc, payload); err != nil {
				return fmt.Errorf("stream: %w", err)
			}
			if !last {
				continue
			}
			blk, err := decodeBlock(f.acc)
			f.acc = f.acc[:0]
			if err != nil {
				return resyncf("stream: %v", err)
			}
			if err := f.applyBlock(blk); err != nil {
				return err
			}
		default:
			return fmt.Errorf("stream: unknown frame type %q", typ)
		}
	}
}

// ingestBytes appends shipped bytes to the reassembly buffer and applies
// every complete WAL record in it. Frames split records arbitrarily (the
// leader ships fixed-size chunks), so the record framing is re-parsed
// here with the same layout and sanity bounds the WAL itself uses.
func (f *Follower) ingestBytes(p []byte) error {
	f.pend = append(f.pend, p...)
	for {
		if len(f.pend) < 8 {
			return nil
		}
		length := binary.LittleEndian.Uint32(f.pend[0:4])
		want := binary.LittleEndian.Uint32(f.pend[4:8])
		if length == 0 || length > ingest.WALRecordMax {
			return resyncf("shipped record with implausible length %d", length)
		}
		if len(f.pend) < 8+int(length) {
			return nil
		}
		payload := f.pend[8 : 8+length]
		if got := crc32.ChecksumIEEE(payload); got != want {
			return resyncf("shipped record crc mismatch (got %08x, want %08x)", got, want)
		}
		m, err := ingest.DecodeMutation(payload)
		if err != nil {
			return resyncf("shipped record does not decode: %v", err)
		}
		// Local durability before visibility: once applied (and
		// especially once published), the record must survive a crash.
		if err := f.wal.Append(m); err != nil {
			return fmt.Errorf("local wal: %w", err)
		}
		if err := f.applyRecord(m, int64(8+length), true); err != nil {
			return err
		}
		f.pend = f.pend[8+int(length):]
	}
}

// applyRecord advances the follower by one record: mutations buffer
// into the delta, epoch markers go to applyMarker. live is false during
// local-WAL recovery replay (the record is already durable).
func (f *Follower) applyRecord(m ingest.Mutation, size int64, live bool) error {
	f.streamOff += size
	f.localWALOff += size
	f.localOffA.Store(f.streamOff)
	f.recApplied.Add(1)
	if live {
		mRecordsApplied.Inc()
	}
	if m.Kind != ingest.KindEpoch {
		f.delta = append(f.delta, m)
		return nil
	}
	return f.applyMarker(m.Epoch, live)
}

// mark is an applied epoch marker, kept until its epoch is published
// or a later one supersedes it.
type mark struct {
	epoch    uint64
	push     bool
	rankedAt int
	// net is a full marker's compaction. A push marker builds on full
	// epoch base instead, with citations citations since it.
	net       *graph.Network
	base      uint64
	citations int
	// leaderOff and localOff are the stream and local WAL offsets
	// right after the marker.
	leaderOff, localOff int64
	// at is when the stream applied the marker (zero in recovery
	// replay and for a bootstrap's or saved state's start).
	at time.Time
}

// applyMarker is the follower half of the determinism contract (see
// ingest.KindEpoch): a marker must follow the last one and cover
// exactly the mutations since it; a push marker keeps the full epoch's
// clock and holds only citations, and a full marker compacts the whole
// delta onto base's network. The epoch is published when its block
// arrives (applyBlock). Any disagreement with the local log means the
// stream and the state have diverged — resync rather than guess.
func (f *Follower) applyMarker(em ingest.EpochMark, live bool) error {
	if em.Epoch != f.lastMark+1 {
		return resyncf("marker for epoch %d after marker %d", em.Epoch, f.lastMark)
	}
	newMuts := f.delta[f.sinceMark:]
	if int(em.Count) != len(newMuts) {
		return resyncf("marker for epoch %d covers %d mutations, %d buffered", em.Epoch, em.Count, len(newMuts))
	}
	m := mark{epoch: em.Epoch, push: em.Flags&ingest.MarkPush != 0, rankedAt: em.RankedAt,
		leaderOff: f.streamOff, localOff: f.localWALOff}
	if live {
		m.at = time.Now()
	}
	if m.push {
		if em.RankedAt != f.base.rankedAt {
			return resyncf("push marker for epoch %d at ranking time %d after a full epoch at %d",
				em.Epoch, em.RankedAt, f.base.rankedAt)
		}
		for _, mu := range newMuts {
			if mu.Kind != ingest.KindCitation {
				return resyncf("push marker for epoch %d covers a mutation of kind %d", em.Epoch, mu.Kind)
			}
		}
		m.base, m.citations = f.base.epoch, len(f.delta)
	} else {
		net, err := ingest.Compact(f.base.net, f.delta)
		if err != nil {
			return resyncf("epoch %d: compacting: %v", em.Epoch, err)
		}
		m.net, f.delta = net, nil
		f.base = m
	}
	f.sinceMark, f.lastMark = len(f.delta), em.Epoch
	f.addMark(m)
	if b := f.held; b != nil && b.epoch == em.Epoch {
		f.held = nil
		return f.applyBlock(b)
	}
	return nil
}

// addMark appends m to the unpublished markers. A full marker drops
// every marker before the previous full one: a block names the newest
// epoch the leader has published, and the leader appends a full marker
// only after publishing the epoch before it (unless ranking that epoch
// failed, when a later block supersedes it anyway).
func (f *Follower) addMark(m mark) {
	f.marks = append(f.marks, m)
	if m.push {
		return
	}
	fulls := 0
	for i := len(f.marks) - 1; i >= 0; i-- {
		if f.marks[i].push {
			continue
		}
		if fulls++; fulls == 2 {
			f.skip(f.marks[:i])
			f.marks = append([]mark(nil), f.marks[i:]...)
			return
		}
	}
}

// skip counts the stream-applied markers in ms as epochs never
// published.
func (f *Follower) skip(ms []mark) {
	for _, m := range ms {
		if !m.at.IsZero() {
			mEpochsSkipped.Inc()
		}
	}
}

// applyBlock publishes the epoch a leader's block ships, built by the
// leader's own builders: Chain.Seed for a full epoch, on the network
// this follower compacted at its marker, and Ranking.Pushed for a push
// epoch, on the full epoch it follows. A block for an epoch already
// published, or whose marker was dropped, is ignored, and one whose
// marker has not been applied yet is held until it is. Markers before
// the block's epoch are skipped. A full epoch carries the indicators
// of the one before it unless its block ships its own influence
// (bootstrap, recovery); indicator blocks go to applyIndicators. A
// full epoch's block is saved as vectors.bin once the epoch has its
// indicators, or at once when they are off, so recovery can serve it
// again.
func (f *Follower) applyBlock(b *epochBlock) error {
	if b.kind == blockIndicators {
		return f.applyIndicators(b)
	}
	if b.epoch <= f.published {
		return nil
	}
	i := 0
	for i < len(f.marks) && f.marks[i].epoch != b.epoch {
		i++
	}
	if i == len(f.marks) {
		if b.epoch > f.lastMark {
			f.held = b
		}
		// Otherwise its marker was dropped; a later block supersedes it.
		return nil
	}
	m, push := f.marks[i], b.kind == blockPush
	if push != m.push {
		return resyncf("block for epoch %d (push %v) under a marker with push %v", b.epoch, push, m.push)
	}
	var r *ingest.Ranking
	if push {
		last := f.chain.Last()
		if last == nil || last.Epoch != m.base {
			// The leader sends the full epoch's block first; a stream
			// that lost it re-sends both after reconnecting.
			return fmt.Errorf("push block for epoch %d builds on full epoch %d, not published", b.epoch, m.base)
		}
		if len(b.scores) != last.Net.N() {
			return resyncf("push block for epoch %d has %d scores for %d papers", b.epoch, len(b.scores), last.Net.N())
		}
		r = last.Pushed(b.epoch, b.scores, b.pushes, m.citations, b.staleness)
	} else {
		if b.papers != m.net.N() || b.edges != m.net.Edges() || b.rankedAt != m.rankedAt {
			return resyncf("block for epoch %d (%d papers, %d edges, ranked at %d) differs from the local compaction (%d papers, %d edges, ranked at %d)",
				b.epoch, b.papers, b.edges, b.rankedAt, m.net.N(), m.net.Edges(), m.rankedAt)
		}
		res := &core.Result{Scores: b.scores, Iterations: b.iterations, Converged: b.converged,
			Residuals: b.residuals, Attention: b.attention, Recency: b.recency}
		var influence *core.Result
		if b.influence != nil {
			influence = &core.Result{Scores: b.influence, Iterations: b.prIterations, Converged: b.prConverged}
		}
		var err error
		if r, err = f.chain.Seed(b.epoch, m.net, res, influence, b.rankedAt); err != nil {
			return resyncf("epoch %d: %v", b.epoch, err)
		}
		f.markerLeaderOff, f.markerLocalOff = m.leaderOff, m.localOff
		f.fullAt = time.Now()
	}
	f.skip(f.marks[:i])
	f.marks = append([]mark(nil), f.marks[i+1:]...)
	f.published = b.epoch
	f.ranking.Store(r)
	f.localEpochA.Store(b.epoch)
	mEpochsApplied.Inc()
	if push {
		mPushEpochsApplied.Inc()
	}
	if !m.at.IsZero() {
		mFrameWait.ObserveSince(m.at)
		if !push && (!f.impactCfg.Enabled || b.influence != nil) {
			f.saveEpoch(r)
		}
	}
	f.observeLag()
	if h := f.heldInd; !push && h != nil && h.epoch <= b.epoch {
		f.heldInd = nil
		return f.applyIndicators(h)
	}
	return nil
}

// applyIndicators attaches the indicators of the full epoch an
// indicator block names, derived from its shipped influence PageRank
// (impact.Derive: no solve), republishes the newest view built on that
// epoch with them, and saves the epoch as vectors.bin. A block for an
// epoch not published yet is held until it is; one for an epoch a
// later full epoch superseded is dropped, and a re-sent one ignored.
// Indicator blocks arrive only on the live stream.
func (f *Follower) applyIndicators(b *epochBlock) error {
	if b.epoch > f.published {
		f.heldInd = b
		return nil
	}
	last := f.chain.Last()
	if last == nil || last.Epoch != b.epoch {
		ingest.ImpactAttachSuperseded.With("follower").Inc()
		return nil
	}
	if ownIndicators(last) || !f.impactCfg.Enabled {
		return nil
	}
	if len(b.influence) != last.Net.N() {
		return resyncf("indicator block for epoch %d has %d values for %d papers", b.epoch, len(b.influence), last.Net.N())
	}
	influence := &core.Result{Scores: b.influence, Iterations: b.prIterations, Converged: b.prConverged}
	ind, err := impact.Derive(last.Net, last.Result.Scores, influence, last.RankedAt, f.impactCfg)
	if err != nil {
		f.logf("repl: follower: epoch %d indicators skipped: %v", b.epoch, err)
		return nil
	}
	full, _ := f.chain.Attach(b.epoch, ind)
	v := full
	if cur := f.ranking.Load(); cur.Epoch != full.Epoch {
		v = cur.WithIndicators(full.Impact, full.ImpactEpoch)
	}
	f.ranking.Store(v)
	ingest.ImpactAttachSeconds.With("follower").ObserveSince(f.fullAt)
	f.saveEpoch(full)
	return nil
}

// saveEpoch saves full epoch r's block, with its influence when it
// has its own indicators, as vectors.bin. A failure is only logged:
// the epoch is published, and recovery starts from the last block
// saved.
func (f *Follower) saveEpoch(r *ingest.Ranking) {
	if err := f.saveBlock(blockOf(r, true)); err != nil {
		f.logf("repl: follower: saving epoch %d: %v", r.Epoch, err)
	}
}

func (f *Follower) observeLag() {
	local, leader := f.localEpochA.Load(), f.leaderEpoch.Load()
	if leader > local {
		mEpochLag.Set(float64(leader - local))
	} else {
		mEpochLag.Set(0)
	}
}
