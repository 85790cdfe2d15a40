package ingest

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/graph"
	"attrank/internal/impact"
)

// Default debounce and snapshot policy, used when Config leaves the
// corresponding fields zero.
const (
	DefaultRerankAfter   = 256
	DefaultRerankEvery   = 2 * time.Second
	DefaultSnapshotEvery = 4096
	// Incremental-ranking policy defaults (PushTol zero keeps the push
	// path disabled; these govern it once enabled).
	DefaultReconcileEvery = 16
)

// pushMaxBacklog caps the uncompacted mutations a push streak may
// accumulate before a full (compacting) re-rank is forced.
const pushMaxBacklog = 4096

// Config configures an Ingester.
type Config struct {
	// Dir holds the durable state: snapshot.anb and wal.log. Created if
	// missing.
	Dir string
	// Params are the AttRank parameters used for every re-rank.
	Params core.Params
	// Now is the ranking time tN. The effective time of each re-rank is
	// max(Now, corpus max year), so ingesting newer papers advances the
	// clock automatically. Zero means "derive from the corpus".
	Now int
	// RerankAfter triggers a background re-rank once this many mutations
	// are pending (K of the debounce policy). DefaultRerankAfter if zero.
	RerankAfter int
	// RerankEvery bounds the staleness: a re-rank runs this long after
	// the first pending mutation even if fewer than RerankAfter arrived
	// (T of the debounce policy). DefaultRerankEvery if zero.
	RerankEvery time.Duration
	// SnapshotEvery compacts the WAL into a fresh snapshot after this
	// many mutations. DefaultSnapshotEvery if zero; negative disables
	// automatic snapshots.
	SnapshotEvery int
	// PushTol enables incremental ranking (DESIGN.md §14): citation-only
	// batches are absorbed by a Gauss–Southwell residual push settled to
	// this L1 tolerance instead of a full power-method re-rank, with
	// automatic fallback to the full path when budgets are exceeded.
	// Zero disables the push path (every epoch is a full re-rank).
	PushTol float64
	// ReconcileEvery caps the length of a push streak: after this many
	// consecutive push epochs the next re-rank is forced full, so drift
	// is bounded in epochs as well as in residual mass.
	// DefaultReconcileEvery if zero; negative disables the cap.
	ReconcileEvery int
	// Impact configures per-epoch multi-indicator computation
	// (DESIGN.md §15). When Impact.Enabled, every full epoch gets an
	// impact.Epoch (popularity/influence/impulse/cc classes), computed
	// after the epoch is published and attached to it then; until
	// then, and on push epochs, the last attached classes are carried
	// forward.
	Impact impact.Config
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Ranking is one published, immutable view of the ranked corpus. Readers
// obtain it from Ingester.Ranking and use its fields without locking: a
// later epoch never mutates an earlier Ranking, it replaces the pointer.
type Ranking struct {
	// Epoch increments with every publication; the first ranking is 1.
	Epoch uint64
	// Net is the compacted corpus this ranking was computed on.
	Net *graph.Network
	// Result holds the AttRank scores and convergence diagnostics.
	Result *core.Result
	// Order lists node indices by rank position: Order[k] is the paper
	// at 0-based position k, by score descending with ties broken by
	// ascending index (see Index). /v1/top serves its pages as slices
	// of it. Positions is its inverse.
	Order []int
	// Positions maps node index → 0-based rank position.
	Positions []int
	// Stats is Net.ComputeStats(), computed once per epoch so serving it
	// is free. On an incremental epoch it is the last full epoch's stats
	// with the edge counters advanced for the pushed citations.
	Stats graph.Stats
	// RankedAt is the effective ranking time tN used.
	RankedAt int
	// Incremental marks an epoch published by the push updater: Result
	// holds approximate scores within Staleness of the exact rank, and
	// Net is still the last compacted corpus (pushed citations are in
	// the scores and Stats counters but not yet in Net's adjacency).
	Incremental bool
	// Staleness is the L1 bound on ‖published − exact‖ scores; 0 for a
	// full epoch.
	Staleness float64
	// Impact holds the multi-indicator state of full epoch ImpactEpoch
	// (nil when the indicator layer is disabled or no epoch's
	// indicators have been attached yet). A full epoch is published
	// first with the previous full epoch's indicators carried forward,
	// then republished once its own are attached (Chain.Attach); an
	// incremental epoch carries its full epoch's. Impact covers the
	// papers of ImpactEpoch's network, the first Impact.Papers() of Net.
	Impact      *impact.Epoch
	ImpactEpoch uint64
}

// Status reports the ingester's operational state for monitoring.
type Status struct {
	Epoch          uint64        // current ranking epoch (0 = none yet)
	Papers         int           // corpus papers, pending included
	Citations      int           // corpus citations, pending included
	Pending        int           // mutations accepted but not yet ranked
	WALBytes       int64         // current write-ahead log size
	LastRerank     time.Duration // wall time of the last re-rank (compaction + iteration)
	LastIterations int           // power iterations (or pushes) of the last re-rank
	Snapshots      uint64        // snapshots written since Open
	PushEpochs     uint64        // incremental (push) epochs published since Open
	PushBacklog    int           // mutations absorbed by pushes, not yet compacted
	Staleness      float64       // L1 error bound of the published scores (0 = exact)
	ImpactEpoch    uint64        // full epoch the published indicators come from (0 = none)
}

// ItemError reports a rejected mutation inside a batch.
type ItemError struct {
	Index int    `json:"index"`
	Msg   string `json:"error"`
}

// BatchResult summarizes one ApplyBatch call. Duplicates (papers whose ID
// already exists, edges already present) are idempotent no-ops, not
// errors; Errors lists mutations that were invalid and skipped.
type BatchResult struct {
	Accepted   int
	Duplicates int
	Errors     []ItemError
}

// Ingester coordinates the live-ingestion subsystem. All methods are safe
// for concurrent use.
type Ingester struct {
	cfg      Config
	snapPath string
	logf     func(string, ...any)

	// mu guards the mutable corpus state and the WAL. Writers hold it
	// for validation + WAL append; the scheduler holds it briefly to
	// swap a freshly compacted network in. Compaction and ranking
	// themselves run outside the lock.
	mu            sync.Mutex
	wal           *WAL
	base          *graph.Network      // last compacted immutable network
	delta         []Mutation          // accepted mutations not yet compacted
	deltaIDs      map[string]struct{} // paper IDs in delta
	deltaEdges    map[[2]string]struct{}
	sinceSnapshot int       // mutations compacted since the last snapshot
	firstPending  time.Time // when the oldest unranked mutation arrived (zero: none)
	closed        bool

	// Incremental-ranking state (guarded by mu; only the scheduler and
	// Open mutate it). delta[:pushed] is the push backlog: mutations
	// already absorbed into published scores by the push updater but not
	// yet compacted — the next full epoch compacts the whole delta and
	// resets pushed to 0. pushStreak counts the push epochs published
	// since then, for the ReconcileEvery policy.
	pushed     int
	pushStreak int

	lastDur atomic.Int64 // last re-rank wall time, ns
	lastIt  atomic.Int64 // last re-rank iterations
	snaps   atomic.Uint64
	pushEp  atomic.Uint64 // push epochs published since Open

	// latest is the newest published epoch (Ranking serves it) and
	// anchor the last FULL one, the replication bootstrap (see
	// ReplState; stored under mu with latest), each with the cursor
	// right after its marker. pubWake is closed and replaced at every
	// publication.
	latest  atomic.Pointer[ReplEpoch]
	anchor  atomic.Pointer[ReplEpoch]
	pubWake atomic.Pointer[chan struct{}]

	// claimed is the highest epoch number committed to the WAL as a
	// marker (the scheduler claims the epoch before ranking it, so the
	// marker lands ahead of any mutation that arrives mid-rank); the
	// published ranking's epoch trails claimed while a re-rank is in
	// flight. On recovery claimed resumes from the largest marker
	// in the WAL, so epoch numbers never regress across restarts.
	claimed atomic.Uint64
	// instance is a random nonce minted per Open. Followers carry it so
	// a leader restart — which rebuilds the warm-start chain from a cold
	// rank — forces them to full-resync rather than silently diverge.
	instance uint64
	cursor   atomic.Pointer[ReplCursor]

	chain *Chain // owned by the scheduler goroutine (and Open)

	// The indicator attach (DESIGN.md §7), owned like chain: job is the
	// computation in flight (nil when none), tried the newest full
	// epoch a computation ran or runs for, and fullAt when chain.Last()
	// was published. indicators computes an epoch's indicators.
	job        *attachJob
	tried      uint64
	fullAt     time.Time
	indicators func(r *Ranking, workers int) (*impact.Epoch, error)

	kick    chan struct{}
	flushCh chan chan error
	stopCh  chan struct{}
	done    chan struct{}
}

// Open starts an ingester over the durable state in cfg.Dir. If the
// directory holds a snapshot, the corpus is recovered from it plus the
// WAL tail; otherwise seed (which may be nil for an initially empty
// corpus) becomes the base and is snapshotted immediately so a crash
// before the first automatic snapshot still recovers. When the corpus is
// non-empty, Open publishes the initial ranking (epoch 1) before
// returning, so a server attaching to the ingester is immediately ready.
func Open(seed *graph.Network, cfg Config) (*Ingester, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Config.Dir is required")
	}
	if cfg.RerankAfter <= 0 {
		cfg.RerankAfter = DefaultRerankAfter
	}
	if cfg.RerankEvery <= 0 {
		cfg.RerankEvery = DefaultRerankEvery
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.PushTol < 0 {
		return nil, fmt.Errorf("ingest: negative PushTol %v", cfg.PushTol)
	}
	if cfg.ReconcileEvery == 0 {
		cfg.ReconcileEvery = DefaultReconcileEvery
	}
	if cfg.Impact.Enabled {
		// Resolve defaults here so followers receive the exact values in
		// use, never "zero means default" conventions (see impact.Config).
		cfg.Impact = cfg.Impact.WithDefaults()
		if err := cfg.Impact.Validate(); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	chain, err := NewChain(cfg.Params, core.PushConfig{Tol: cfg.PushTol}, cfg.Impact, cfg.Logf)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	ing := &Ingester{
		cfg:        cfg,
		snapPath:   filepath.Join(cfg.Dir, "snapshot.anb"),
		logf:       cfg.Logf,
		deltaIDs:   make(map[string]struct{}),
		deltaEdges: make(map[[2]string]struct{}),
		chain:      chain,
		indicators: indicatorsFor(cfg.Impact),
		kick:       make(chan struct{}, 1),
		flushCh:    make(chan chan error),
		stopCh:     make(chan struct{}),
		done:       make(chan struct{}),
	}
	wake := make(chan struct{})
	ing.pubWake.Store(&wake)

	freshDir := true
	if _, err := os.Stat(ing.snapPath); err == nil {
		freshDir = false
		base, err := dataio.LoadBinaryFile(ing.snapPath)
		if err != nil {
			return nil, fmt.Errorf("ingest: recovering snapshot: %w", err)
		}
		ing.base = base
	} else if seed != nil {
		ing.base = seed
	} else {
		empty, err := graph.NewBuilder().Build()
		if err != nil {
			return nil, err
		}
		ing.base = empty
	}

	if err := binary.Read(crand.Reader, binary.LittleEndian, &ing.instance); err != nil {
		return nil, fmt.Errorf("ingest: instance nonce: %w", err)
	}

	// Replay the WAL tail into the delta. Records are validated with the
	// same rules as live writes, so a record made redundant by the
	// snapshot (crash between snapshot and WAL reset) replays as a
	// duplicate no-op. Epoch markers are bookkeeping, not corpus state:
	// replay only resumes the epoch counter from them.
	replayed, skipped := 0, 0
	var maxMark uint64
	wal, err := OpenWAL(filepath.Join(cfg.Dir, "wal.log"), func(m Mutation) error {
		if m.Kind == KindEpoch {
			if m.Epoch.Epoch > maxMark {
				maxMark = m.Epoch.Epoch
			}
			return nil
		}
		switch ing.validate(m) {
		case applyOK:
			ing.applyToDelta(m)
			replayed++
		case applyDuplicate:
			// no-op
		default:
			// An invalid durable record means the snapshot and WAL
			// disagree (e.g. a hand-edited directory). Skip but report.
			skipped++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ing.wal = wal
	ing.claimed.Store(maxMark)
	if torn := wal.TornTail(); torn != nil {
		ing.logf("ingest: wal recovery truncated a torn tail: %v", torn)
	}
	mWALReplayedTotal.Add(int64(replayed))
	if replayed > 0 || skipped > 0 {
		ing.logf("ingest: recovered %d mutations from WAL (%d invalid skipped)", replayed, skipped)
	}

	// A fresh directory with a seeded corpus: make the seed durable now,
	// otherwise it exists only in memory and a crash loses it.
	if freshDir && seed != nil {
		if err := dataio.SaveBinaryAtomic(ing.snapPath, ing.base); err != nil {
			wal.Close()
			return nil, err
		}
		ing.snaps.Add(1)
	}

	ing.storeCursor()
	if ing.base.N() > 0 || len(ing.delta) > 0 {
		if err := ing.rerank(true); err != nil {
			wal.Close()
			return nil, fmt.Errorf("ingest: initial ranking: %w", err)
		}
		ing.attachNow()
	}
	go ing.loop()
	return ing, nil
}

// Ranking returns the most recently published ranking, or nil if the
// corpus has been empty so far.
func (ing *Ingester) Ranking() *Ranking {
	if e := ing.latest.Load(); e != nil {
		return e.Ranking
	}
	return nil
}

// Params returns the ranking parameters.
func (ing *Ingester) Params() core.Params { return ing.cfg.Params }

// Status returns a consistent snapshot of the operational counters.
func (ing *Ingester) Status() Status {
	ing.mu.Lock()
	st := Status{
		Papers:      ing.base.N() + len(ing.deltaIDs),
		Citations:   ing.base.Edges() + len(ing.deltaEdges),
		Pending:     len(ing.delta) - ing.pushed,
		PushBacklog: ing.pushed,
		WALBytes:    ing.wal.Size(),
	}
	ing.mu.Unlock()
	st.LastRerank = time.Duration(ing.lastDur.Load())
	st.LastIterations = int(ing.lastIt.Load())
	st.Snapshots = ing.snaps.Load()
	st.PushEpochs = ing.pushEp.Load()
	if r := ing.Ranking(); r != nil {
		st.Epoch, st.Staleness, st.ImpactEpoch = r.Epoch, r.Staleness, r.ImpactEpoch
	}
	return st
}

// AddPaper durably records one paper. A paper whose ID already exists is
// an idempotent no-op reported as duplicate=true.
func (ing *Ingester) AddPaper(p PaperMut) (duplicate bool, err error) {
	return ing.addOne(Mutation{Kind: KindPaper, Paper: p})
}

// AddCitation durably records one citation edge. An existing edge is an
// idempotent no-op reported as duplicate=true.
func (ing *Ingester) AddCitation(c CitationMut) (duplicate bool, err error) {
	return ing.addOne(Mutation{Kind: KindCitation, Citation: c})
}

func (ing *Ingester) addOne(m Mutation) (bool, error) {
	res, err := ing.ApplyBatch([]Mutation{m})
	if err != nil {
		return false, err
	}
	if len(res.Errors) > 0 {
		return false, fmt.Errorf("%s", res.Errors[0].Msg)
	}
	return res.Duplicates == 1, nil
}

// ApplyBatch validates the mutations in order (later items may reference
// papers introduced earlier in the same batch), appends the accepted ones
// to the WAL with a single fsync, buffers them in the delta overlay and
// wakes the re-rank scheduler. Invalid items are skipped and reported in
// the result; the returned error is reserved for systemic failures (log
// I/O, closed ingester), after which none of the batch is applied.
func (ing *Ingester) ApplyBatch(muts []Mutation) (BatchResult, error) {
	var res BatchResult
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.closed {
		return res, fmt.Errorf("ingest: closed")
	}
	accepted := make([]Mutation, 0, len(muts))
	// Track intra-batch state so validation sees earlier accepted items.
	undoIDs := make([]string, 0, 4)
	undoEdges := make([][2]string, 0, 4)
	for i, m := range muts {
		switch v := ing.validate(m); v {
		case applyOK:
			accepted = append(accepted, m)
			// Provisionally apply to the validation maps only; the delta
			// list is extended after the WAL append succeeds.
			switch m.Kind {
			case KindPaper:
				ing.deltaIDs[m.Paper.ID] = struct{}{}
				undoIDs = append(undoIDs, m.Paper.ID)
			case KindCitation:
				key := [2]string{m.Citation.Citing, m.Citation.Cited}
				ing.deltaEdges[key] = struct{}{}
				undoEdges = append(undoEdges, key)
			}
		case applyDuplicate:
			res.Duplicates++
		default:
			res.Errors = append(res.Errors, ItemError{Index: i, Msg: v.msg})
		}
	}
	if len(accepted) == 0 {
		return res, nil
	}
	if err := ing.wal.Append(accepted...); err != nil {
		// Nothing was acknowledged; roll the validation maps back.
		for _, id := range undoIDs {
			delete(ing.deltaIDs, id)
		}
		for _, e := range undoEdges {
			delete(ing.deltaEdges, e)
		}
		return BatchResult{}, err
	}
	if len(ing.delta) == ing.pushed {
		// No unranked mutations were pending (push-absorbed backlog does
		// not count: its scores are already published).
		ing.firstPending = time.Now()
	}
	ing.delta = append(ing.delta, accepted...)
	mMutationsTotal.Add(int64(len(accepted)))
	mPending.Set(float64(len(ing.delta) - ing.pushed))
	res.Accepted = len(accepted)
	select {
	case ing.kick <- struct{}{}:
	default:
	}
	return res, nil
}

// applyVerdict classifies one mutation against the current corpus.
type applyVerdict struct {
	code int // 0 accept, 1 duplicate, 2 error
	msg  string
}

var (
	applyOK        = applyVerdict{code: 0}
	applyDuplicate = applyVerdict{code: 1}
)

func applyError(format string, args ...any) applyVerdict {
	return applyVerdict{code: 2, msg: fmt.Sprintf(format, args...)}
}

// validate requires ing.mu. Its rules are exactly the failure modes of
// graph.Builder.Build, so an accepted mutation can never make compaction
// fail.
func (ing *Ingester) validate(m Mutation) applyVerdict {
	switch m.Kind {
	case KindPaper:
		if m.Paper.ID == "" {
			return applyError("empty paper id")
		}
		if ing.hasPaper(m.Paper.ID) {
			return applyDuplicate
		}
		// A paper the WAL cannot encode would fail the whole batch at
		// append time; reject it as an item instead. A citation needs
		// no such check: both endpoints are known, hence loggable, IDs.
		rec, err := m.encode(nil)
		if err != nil {
			return applyError("%v", err)
		}
		if len(rec) > walRecordMax {
			return applyError("paper record of %d bytes exceeds the %d-byte WAL record limit", len(rec), walRecordMax)
		}
		return applyOK
	case KindCitation:
		c := m.Citation
		if c.Citing == "" || c.Cited == "" {
			return applyError("citation needs both citing and cited ids")
		}
		if c.Citing == c.Cited {
			return applyError("self-citation %q", c.Citing)
		}
		if !ing.hasPaper(c.Citing) {
			return applyError("unknown citing paper %q", c.Citing)
		}
		if !ing.hasPaper(c.Cited) {
			return applyError("unknown cited paper %q", c.Cited)
		}
		if _, ok := ing.deltaEdges[[2]string{c.Citing, c.Cited}]; ok {
			return applyDuplicate
		}
		ci, okc := ing.base.Lookup(c.Citing)
		ti, okt := ing.base.Lookup(c.Cited)
		if okc && okt && ing.base.HasEdge(ci, ti) {
			return applyDuplicate
		}
		return applyOK
	default:
		return applyError("unknown mutation kind %d", m.Kind)
	}
}

func (ing *Ingester) hasPaper(id string) bool {
	if _, ok := ing.deltaIDs[id]; ok {
		return true
	}
	_, ok := ing.base.Lookup(id)
	return ok
}

// applyToDelta requires ing.mu and a mutation that validated as applyOK.
func (ing *Ingester) applyToDelta(m Mutation) {
	ing.delta = append(ing.delta, m)
	switch m.Kind {
	case KindPaper:
		ing.deltaIDs[m.Paper.ID] = struct{}{}
	case KindCitation:
		ing.deltaEdges[[2]string{m.Citation.Citing, m.Citation.Cited}] = struct{}{}
	}
}

// Pending returns the number of mutations accepted but not yet
// reflected in a published ranking — the signal the service layer's
// write backpressure keys off. Mutations absorbed by an incremental
// push epoch no longer count (their scores are live), even though they
// remain uncompacted until the next full epoch.
func (ing *Ingester) Pending() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return len(ing.delta) - ing.pushed
}

// Flush forces a synchronous compaction + re-rank and returns once the
// new epoch is published with its own indicators attached (the
// /v1/refresh path, and handy in tests).
func (ing *Ingester) Flush() error {
	return ing.FlushContext(context.Background())
}

// FlushContext is Flush bounded by a context: when the context expires
// the wait is abandoned and ctx.Err() returned, but the re-rank itself —
// once enqueued — still runs to completion and publishes its epoch in
// the background. This is how a per-request deadline covers /v1/refresh
// without ever cancelling a re-rank other requests may be waiting on.
func (ing *Ingester) FlushContext(ctx context.Context) error {
	done := make(chan error, 1)
	select {
	case ing.flushCh <- done:
	case <-ing.stopCh:
		return fmt.Errorf("ingest: closed")
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the scheduler, waits for any in-flight re-rank and
// indicator computation, and closes the WAL. Pending mutations are
// already durable; they are recovered on the next Open.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return nil
	}
	ing.closed = true
	ing.mu.Unlock()
	close(ing.stopCh)
	<-ing.done
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.wal.Close()
}

// loop is the re-rank scheduler: it debounces mutations (rank after
// RerankAfter mutations or RerankEvery elapsed, whichever first) and
// serializes every re-rank and snapshot. After a full epoch it starts
// the epoch's indicator computation, at most one at a time, and
// attaches each result as it lands (attach.go).
func (ing *Ingester) loop() {
	defer close(ing.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	pending := func() int {
		ing.mu.Lock()
		defer ing.mu.Unlock()
		return len(ing.delta) - ing.pushed
	}
	runRerank := func() {
		if err := ing.rerank(false); err != nil {
			ing.logf("ingest: rerank: %v", err)
		}
		ing.maybeSnapshot()
		ing.startAttach()
	}
	for {
		select {
		case <-ing.kick:
			n := pending()
			if n >= ing.cfg.RerankAfter {
				disarm()
				runRerank()
			} else if n > 0 && !armed {
				timer.Reset(ing.cfg.RerankEvery)
				armed = true
			}
		case <-timer.C:
			armed = false
			runRerank()
		case <-ing.attachDone():
			ing.finishAttach()
			ing.startAttach() // the newest epoch's, if the job was superseded
		case done := <-ing.flushCh:
			// Flush promises a reconciled view: force the full path so
			// the caller observes exact, compacted state with its own
			// indicators.
			disarm()
			err := ing.rerank(true)
			ing.maybeSnapshot()
			ing.attachNow()
			done <- err
		case <-ing.stopCh:
			disarm()
			if ing.job != nil {
				<-ing.job.done // its result is dropped
			}
			return
		}
	}
}

// rerank publishes a new epoch. With the push path enabled and
// eligible (citation-only batch, bounded backlog and drift, same
// clock as the last full epoch) it absorbs the batch incrementally via
// tryPushLocked; otherwise — or when forceFull is set (Open's initial
// rank, Flush, fallback) — the chain compacts the whole delta into a
// fresh immutable network and ranks it warm-started, and rerank
// publishes the new epoch and swaps the compacted network in as the
// new base. Readers are never blocked: they keep using the
// previous Ranking until the atomic pointer swap.
//
// The epoch is claimed — and its marker appended to the WAL — inside
// the first critical section, before any mutation arriving mid-rank can
// reach the log: a follower reading the log therefore sees exactly this
// epoch's mutations ahead of the marker, which is what lets it compact
// the epoch's network itself and check it against the leader's shipped
// epoch (see internal/replication). For the same reason the push
// decision and settle run under the lock: the marker's push flag and
// Count must describe exactly the records that precede it.
func (ing *Ingester) rerank(forceFull bool) error {
	started := time.Now()
	ing.mu.Lock()
	base := ing.base
	upTo := len(ing.delta)
	if base.N() == 0 && upTo == 0 {
		ing.mu.Unlock()
		return nil // nothing to rank yet
	}
	deltaPrefix := ing.delta[:upTo:upTo]
	if upTo > ing.pushed && !ing.firstPending.IsZero() {
		// Debounce lag: how long the oldest mutation of this batch sat
		// pending before a re-rank picked it up.
		mDebounceSeconds.ObserveSince(ing.firstPending)
	}
	// The effective ranking time must be fixed before the marker is
	// written — followers rank with the marker's value, not their own
	// clock. It equals what the compacted network's MaxYear will be.
	now := ing.cfg.Now
	if y := base.MaxYear(); y > now {
		now = y
	}
	for _, m := range deltaPrefix {
		if m.Kind == KindPaper && m.Paper.Year > now {
			now = m.Paper.Year
		}
	}
	if !forceFull && ing.tryPushLocked(now, upTo, started) {
		return nil // push epoch published; mu already released
	}
	var flags byte
	if ing.pushStreak > 0 {
		flags = MarkReconcile
	}
	e := ing.claimed.Add(1)
	mark := Mutation{Kind: KindEpoch, Epoch: EpochMark{Epoch: e, RankedAt: now, Count: uint32(upTo - ing.pushed), Flags: flags}}
	if err := ing.wal.Append(mark); err != nil {
		ing.claimed.Add(^uint64(0)) // un-claim; nothing was committed
		ing.mu.Unlock()
		return fmt.Errorf("epoch marker: %w", err)
	}
	ing.storeCursor()
	ing.mu.Unlock()

	r, err := ing.chain.Rank(e, base, deltaPrefix, now)
	if err != nil {
		return err
	}

	ing.mu.Lock()
	ing.base = r.Net
	rest := ing.delta[upTo:]
	ing.delta, ing.deltaIDs, ing.deltaEdges = nil, make(map[string]struct{}), make(map[[2]string]struct{})
	for _, m := range rest {
		ing.applyToDelta(m)
	}
	// A full epoch reconciles: the push backlog is compacted and the
	// streak ends (Rank dropped the chain's pusher).
	ing.pushed = 0
	ing.pushStreak = 0
	// Mutations that arrived while this re-rank ran start their pending
	// clock now: their true arrival is unrecorded, and "since the last
	// compaction" is the tight upper bound on their lag.
	if len(ing.delta) > 0 {
		ing.firstPending = time.Now()
	} else {
		ing.firstPending = time.Time{}
	}
	mPending.Set(float64(len(ing.delta)))
	ing.sinceSnapshot += upTo
	// The cursor is this epoch's marker, or a snapshot's since: only
	// this scheduler claims epochs. The epoch becomes the bootstrap
	// anchor and the published epoch at once, so no follower is sent it
	// before Ranking returns it.
	pub := &ReplEpoch{r, *ing.cursor.Load()}
	ing.anchor.Store(pub)
	ing.publish(pub)
	ing.mu.Unlock()
	ing.fullAt = time.Now()

	if upTo > 0 {
		mCompactionsTotal.Inc()
	}
	mRerankSeconds.ObserveSince(started)
	mEpoch.Set(float64(r.Epoch))
	mPushBound.Set(0)
	mPushBacklog.Set(0)
	ing.lastDur.Store(int64(time.Since(started)))
	ing.lastIt.Store(int64(r.Result.Iterations))
	ing.logf("ingest: epoch %d published: %d papers, %d mutations compacted, %d iterations in %s",
		r.Epoch, r.Net.N(), upTo, r.Result.Iterations, time.Since(started).Round(time.Millisecond))
	return nil
}

// tryPushLocked attempts to publish the pending mutations as an
// incremental push epoch. It requires ing.mu held; on success it
// publishes the epoch, releases the lock and returns true. On any
// refusal or failure it returns false with the lock still held and the
// corpus state untouched (a failed push ends the chain's streak — the
// full path that follows starts the next one from its own exact
// result), so the caller proceeds with the full path.
func (ing *Ingester) tryPushLocked(now, upTo int, started time.Time) bool {
	cfg := &ing.cfg
	if cfg.PushTol <= 0 || ing.base.N() == 0 {
		return false
	}
	newMuts := ing.delta[ing.pushed:upTo]
	if len(newMuts) == 0 {
		return false
	}
	// Pending papers force a full epoch: a push-published Ranking keeps
	// the last compacted Net, which must contain every served paper.
	if len(ing.deltaIDs) > 0 {
		return false
	}
	for _, m := range newMuts {
		if m.Kind != KindCitation {
			return false
		}
	}
	if last := ing.chain.Last(); last == nil || last.RankedAt != now {
		// A push epoch keeps the last full epoch's clock; with no
		// pending papers the clock cannot have moved, so this only
		// guards that invariant.
		return false
	}
	if upTo > pushMaxBacklog {
		return false
	}
	if cfg.ReconcileEvery > 0 && ing.pushStreak >= cfg.ReconcileEvery {
		return false // cadence reconciliation
	}
	if ing.chain.Backlog() != ing.pushed {
		// The streak ended without a full epoch (a failed push or push
		// marker whose full fallback could not append its own marker):
		// the published backlog is in no pusher, so never push blind.
		return false
	}
	e := ing.claimed.Load() + 1
	r, err := ing.chain.Push(e, newMuts)
	if err != nil {
		// Budget breach (core.ErrNeedFull) is the adaptive behavior we
		// want — large or non-local batches take the full path.
		ing.logf("ingest: push fallback: %v", err)
		mPushFallbacksTotal.Inc()
		return false
	}
	ing.claimed.Add(1)
	mark := Mutation{Kind: KindEpoch, Epoch: EpochMark{Epoch: e, RankedAt: now, Count: uint32(len(newMuts)), Flags: MarkPush}}
	if err := ing.wal.Append(mark); err != nil {
		ing.claimed.Add(^uint64(0)) // un-claim; nothing was committed
		ing.chain.EndStreak()
		ing.logf("ingest: push epoch marker: %v", err)
		return false // the full path re-appends and surfaces the error
	}
	cur := ing.storeCursor()
	ing.pushed = upTo
	ing.pushStreak++
	ing.firstPending = time.Time{}
	ing.mu.Unlock()

	r.Result.Duration = time.Since(started)
	mPushEpochsTotal.Inc()
	mPushSeconds.ObserveSince(started)
	mPushPushes.Observe(float64(r.Result.Iterations))
	mPushBound.Set(r.Staleness)
	mPushBacklog.Set(float64(upTo))
	mPending.Set(0)
	mEpoch.Set(float64(e))
	ing.lastDur.Store(int64(time.Since(started)))
	ing.lastIt.Store(int64(r.Result.Iterations))
	ing.pushEp.Add(1)
	ing.publish(&ReplEpoch{r, *cur})
	ing.logf("ingest: epoch %d published incrementally: %d citations absorbed, %d pushes, residual bound %.2g in %s",
		e, len(newMuts), r.Result.Iterations, r.Staleness, time.Since(started).Round(time.Microsecond))
	return true
}

// maybeSnapshot writes a snapshot and resets the WAL when the policy says
// so and every accepted mutation has been compacted. Holding mu for the
// duration stalls writers (readers are unaffected); the WAL reset is only
// safe while no new records can be appended.
func (ing *Ingester) maybeSnapshot() {
	if ing.cfg.SnapshotEvery < 0 {
		return
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.sinceSnapshot < ing.cfg.SnapshotEvery || len(ing.delta) > 0 {
		return
	}
	if err := ing.snapshotLocked(); err != nil {
		ing.logf("ingest: snapshot: %v", err)
	}
}

// Snapshot forces a snapshot of the compacted corpus. It fails if
// mutations are pending (call Flush first).
func (ing *Ingester) Snapshot() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if len(ing.delta) > 0 {
		return fmt.Errorf("ingest: %d mutations pending; Flush before Snapshot", len(ing.delta))
	}
	return ing.snapshotLocked()
}

// snapshotLocked requires ing.mu and an empty delta. Crash ordering: the
// snapshot rename lands before the WAL reset, and WAL replay is
// idempotent, so a crash between the two merely replays mutations the
// snapshot already contains.
func (ing *Ingester) snapshotLocked() error {
	started := time.Now()
	if err := dataio.SaveBinaryAtomic(ing.snapPath, ing.base); err != nil {
		return err
	}
	if err := ing.wal.Reset(); err != nil {
		return err
	}
	cur := ing.storeCursor()
	// The delta is empty, so the last epoch was a full one; re-anchor
	// the replication bootstrap cursor in the fresh WAL generation
	// (unless that epoch is still ranking: rerank anchors it itself).
	if a := ing.anchor.Load(); a != nil && a.Ranking.Epoch == cur.Epoch {
		ing.anchor.Store(&ReplEpoch{a.Ranking, *cur})
	}
	ing.sinceSnapshot = 0
	ing.snaps.Add(1)
	mSnapshotsTotal.Inc()
	ing.logf("ingest: snapshot of %d papers written in %s", ing.base.N(), time.Since(started).Round(time.Millisecond))
	return nil
}
