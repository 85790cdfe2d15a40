package replication

import "attrank/internal/obs"

// Replication metric catalogue (DESIGN.md §12). Registered process-wide,
// like the ingest catalogue: a production process is either one leader
// or one follower, and in-process cluster harnesses share the counters.
var (
	mBootstrapsServed = obs.NewCounter("attrank_repl_bootstraps_served_total",
		"Bootstrap (/repl/state) downloads served by the leader.")
	mStreamsOpen = obs.NewGauge("attrank_repl_streams_open",
		"WAL segment streams currently open on the leader.")
	mRejected = obs.NewCounterVec("attrank_repl_rejected_total",
		"Replication requests the leader answered 503 at its cap, by endpoint=wal (streams) or endpoint=state (bootstraps).", "endpoint")
	mBytesShipped = obs.NewCounter("attrank_repl_bytes_shipped_total",
		"WAL bytes shipped to followers (data frame payloads only).")
	mBytesReceived = obs.NewCounter("attrank_repl_bytes_received_total",
		"WAL bytes received from the leader (data frame payloads only).")
	mEpochBlocksShipped = obs.NewCounter("attrank_repl_epoch_blocks_shipped_total",
		"Epoch blocks (a published epoch's computed vectors) sent on WAL streams by the leader.")
	mRecordsApplied = obs.NewCounter("attrank_repl_records_applied_total",
		"Shipped WAL records applied by the follower (markers included).")
	mEpochsApplied = obs.NewCounter("attrank_repl_epochs_applied_total",
		"Epochs the follower published from the leader's epoch blocks.")
	mPushEpochsApplied = obs.NewCounter("attrank_repl_push_epochs_applied_total",
		"Push epochs the follower published from the leader's epoch blocks (subset of epochs applied).")
	mEpochsSkipped = obs.NewCounter("attrank_repl_epochs_skipped_total",
		"Epochs whose marker the follower applied but never published, because the block of a later epoch arrived first.")
	mFrameWait = obs.NewHistogram("attrank_repl_frame_wait_seconds",
		"Time from the follower applying an epoch marker to applying that epoch's block.", obs.LatencyBuckets)
	mReconnects = obs.NewCounter("attrank_repl_reconnects_total",
		"Follower stream reconnect attempts after an error or disconnect.")
	mFullResyncs = obs.NewCounter("attrank_repl_full_resyncs_total",
		"Follower full re-bootstraps (leader restart, WAL rotation, or local state damage).")
	mEpochLag = obs.NewGauge("attrank_repl_epoch_lag",
		"Leader epoch minus locally published epoch on the follower.")
)
