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
// /repl/state, then consume the WAL stream, re-ranking at every epoch
// marker so its published Rankings are bit-identical to the leader's.
type Follower struct {
	cfg    FollowerConfig
	dir    string
	client *http.Client
	logf   func(string, ...any)

	// Chain state below is owned by the run goroutine; Close/Kill read
	// it only after that goroutine has exited.
	instance, gen uint64
	// chain replays the leader's epochs (nil before the first seed);
	// delta holds the mutations since its last full epoch, of which
	// delta[:chain.Backlog()] are in the push epochs since (DESIGN.md
	// §14). The durable save point stays at the last full boundary.
	chain           *ingest.Chain
	delta           []ingest.Mutation
	wal             *ingest.WAL
	pend            []byte // shipped bytes not yet forming a whole record
	streamOff       int64  // leader offset after the last applied record
	localWALOff     int64  // local WAL offset after the last applied record
	markerLeaderOff int64  // leader offset after the last applied FULL marker
	markerLocalOff  int64  // local WAL offset after the last applied FULL marker
	rng             *rand.Rand

	// pushTol and impactCfg are the leader's push tolerance and
	// indicator configuration (zero = disabled), shipped at bootstrap.
	// The chain recomputes each full epoch's impact state with it — the
	// computation is pure, so leader and follower classes are
	// bit-identical.
	pushTol   float64
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

// bootstrap downloads /repl/state, seeds the chain from it, and starts
// a fresh local WAL at the shipped marker boundary.
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
	hdr, net, vecs, err := readState(bufio.NewReaderSize(resp.Body, 1<<16))
	if err != nil {
		return fmt.Errorf("bootstrap %w", err)
	}
	if f.cfg.Expect != nil && wireParamsOf(*f.cfg.Expect) != hdr.Params {
		return fmt.Errorf("bootstrap: leader params %+v differ from expected %+v", hdr.Params, wireParamsOf(*f.cfg.Expect))
	}
	f.impactCfg, f.pushTol = hdr.Impact.config(), hdr.PushTol
	if err := f.seedChain(net, hdr.Params, vecs[0], vecs[1], vecs[2], hdr.Epoch, hdr.RankedAt); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
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
	f.streamOff, f.markerLeaderOff = hdr.Offset, hdr.Offset
	f.localWALOff, f.markerLocalOff = wal.Size(), wal.Size()
	f.localOffA.Store(hdr.Offset)
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
	url := fmt.Sprintf("%s%s?instance=%d&gen=%d&from=%d", f.cfg.Leader, walPath, f.instance, f.gen, f.streamOff)
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
	f.pend = f.pend[:0]
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

// applyRecord advances the chain by one record: mutations buffer into
// the delta, epoch markers compact + re-rank + publish. live is false
// during local-WAL recovery replay (the record is already durable).
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
	return f.applyMarker(m.Epoch)
}

// applyMarker is the follower half of the determinism contract (see
// ingest.KindEpoch): the chain ranks a full marker's epoch over the
// whole delta at the marker's RankedAt, or pushes a push marker's
// (MarkPush) Count new citations, and the follower publishes it. Any
// disagreement with the local chain means the stream and the state
// have diverged — resync rather than guess. Only full markers move the
// durable save point, so approximate push state is never the anchor.
func (f *Follower) applyMarker(mark ingest.EpochMark) error {
	if local := f.localEpochA.Load(); mark.Epoch != local+1 {
		return resyncf("marker for epoch %d after local epoch %d", mark.Epoch, local)
	}
	push := mark.Flags&ingest.MarkPush != 0
	newMuts := f.delta[f.chain.Backlog():]
	if int(mark.Count) != len(newMuts) {
		return resyncf("marker for epoch %d covers %d mutations, %d buffered", mark.Epoch, mark.Count, len(newMuts))
	}
	if last := f.chain.Last(); push && (mark.RankedAt != last.RankedAt || f.pushTol <= 0) {
		return resyncf("push marker for epoch %d at ranking time %d after a full epoch at %d (push tolerance %g)",
			mark.Epoch, mark.RankedAt, last.RankedAt, f.pushTol)
	}
	var r *ingest.Ranking
	var err error
	if push {
		r, err = f.chain.Push(mark.Epoch, newMuts)
	} else {
		r, err = f.chain.Rank(mark.Epoch, f.chain.Last().Net, f.delta, mark.RankedAt)
	}
	if err != nil {
		return resyncf("epoch %d: %v", mark.Epoch, err)
	}
	if push {
		mPushEpochsApplied.Inc()
	} else {
		f.delta = nil
		f.markerLeaderOff, f.markerLocalOff = f.streamOff, f.localWALOff
	}
	f.ranking.Store(r)
	f.localEpochA.Store(r.Epoch)
	mEpochsApplied.Inc()
	f.observeLag()
	return nil
}

func (f *Follower) observeLag() {
	local, leader := f.localEpochA.Load(), f.leaderEpoch.Load()
	if leader > local {
		mEpochLag.Set(float64(leader - local))
	} else {
		mEpochLag.Set(0)
	}
}
