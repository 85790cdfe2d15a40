package ingest

import "attrank/internal/obs"

// The ingest metric catalogue (see DESIGN.md §9). Everything is
// registered once, process-wide: a process runs at most one production
// ingester, and the test suite's many short-lived ingesters simply share
// the counters.
var (
	mWALAppendSeconds = obs.NewHistogram("attrank_ingest_wal_append_seconds",
		"Full WAL append latency (encode + write + fsync) per acknowledged batch.",
		obs.LatencyBuckets)
	mWALFsyncSeconds = obs.NewHistogram("attrank_ingest_wal_fsync_seconds",
		"WAL fsync latency per acknowledged batch.",
		obs.LatencyBuckets)
	mWALBatchRecords = obs.NewHistogram("attrank_ingest_wal_batch_records",
		"Records per WAL append batch.",
		obs.ExpBuckets(1, 2, 12))
	mWALSizeBytes = obs.NewGauge("attrank_ingest_wal_size_bytes",
		"Current WAL size in bytes, header included.")
	mWALReplayedTotal = obs.NewCounter("attrank_ingest_wal_replayed_records_total",
		"Durable WAL records replayed at open (crash/restart recovery).")
	mWALFailuresTotal = obs.NewCounter("attrank_ingest_wal_failures_total",
		"Failed WAL appends (write or fsync error); no record from a failed append is ever acknowledged.")
	mRerankSeconds = obs.NewHistogram("attrank_ingest_rerank_seconds",
		"Wall time of one re-rank (compaction + power iteration + publish).",
		obs.ExpBuckets(1e-3, 2, 16))
	mDebounceSeconds = obs.NewHistogram("attrank_ingest_rerank_debounce_seconds",
		"Lag between the first pending mutation and the re-rank that picked it up.",
		obs.ExpBuckets(1e-3, 2, 16))
	mCompactionsTotal = obs.NewCounter("attrank_ingest_compactions_total",
		"Re-ranks that compacted at least one pending mutation into the base network.")
	mMutationsTotal = obs.NewCounter("attrank_ingest_mutations_total",
		"Mutations accepted and made durable (live writes; WAL replay not included).")
	mSnapshotsTotal = obs.NewCounter("attrank_ingest_snapshots_total",
		"Snapshots written (WAL compactions to snapshot.anb).")
	mEpoch = obs.NewGauge("attrank_ingest_epoch",
		"Most recently published ranking epoch.")
	mPending = obs.NewGauge("attrank_ingest_pending_mutations",
		"Mutations accepted but not yet compacted into a published ranking.")
	mPushEpochsTotal = obs.NewCounter("attrank_ingest_push_epochs_total",
		"Epochs published by the incremental push updater (no full power iteration).")
	mPushFallbacksTotal = obs.NewCounter("attrank_ingest_push_fallbacks_total",
		"Push attempts that fell back to a full re-rank (budget breach, clock advance, apply failure).")
	mPushSeconds = obs.NewHistogram("attrank_ingest_push_seconds",
		"Wall time of one incremental push re-rank (seed + settle + publish).",
		obs.ExpBuckets(1e-6, 2, 24))
	mPushPushes = obs.NewHistogram("attrank_ingest_push_pushes",
		"Residual pushes performed per incremental re-rank.",
		obs.ExpBuckets(1, 2, 20))
	mPushBound = obs.NewGauge("attrank_ingest_push_residual_bound",
		"Current L1 error bound of the published incremental scores vs the exact rank (0 after a full epoch).")
	mPushBacklog = obs.NewGauge("attrank_ingest_push_backlog",
		"Mutations absorbed by pushes but not yet compacted (cleared by the next reconciling full epoch).")
	// The indicator attach, by role="leader" (the ingester) or
	// role="follower" (a replication follower): exported so the
	// follower records into the same families.
	ImpactAttachSeconds = obs.NewHistogramVec("attrank_impact_attach_seconds",
		"Time from a full epoch's ranking publication to its impact indicators attached.",
		obs.ExpBuckets(1e-3, 2, 16), "role")
	ImpactAttachSuperseded = obs.NewCounterVec("attrank_impact_attach_superseded_total",
		"Impact indicator results dropped because a later full epoch was published first.", "role")
)
