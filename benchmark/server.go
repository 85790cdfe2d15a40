package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"
)

// Load of the server workloads.
const (
	writeRate      = 10.0 // writes/s in the write workloads
	backgroundRate = 50.0 // reads/s alongside the writes
	// The load never uses more connections than the reference machine
	// has cores (2): two read connections, or one write and one read.
	readConns = 2
	// closedSchedule is the length of the reads workload's schedule,
	// which its clients cycle through.
	closedSchedule = 10000
	// visibleWithin bounds how long an acknowledged write may take to
	// reach the follower once the load has stopped.
	visibleWithin = 30 * time.Second
)

// serverLoad is a server workload's schedule: reads go to the follower,
// writes to the leader over one connection, so the WAL holds them in the
// order they were sent.
type serverLoad struct {
	reads, writes []op
	readConns     int
	closedReads   bool
	newPapers     bool // writes add papers (full epochs), not just citations
}

// planServer makes the workload's schedule. The reads workload is two
// clients that each send their next read as soon as the previous one is
// answered (closed loop): it keeps the server busy, which measures its
// capacity and spares the measurement the wake-up delays of idle cores.
// The write workloads are open loop at fixed rates.
func planServer(cfg config, d *deployment) serverLoad {
	if cfg.workload == "reads" {
		return serverLoad{reads: readOps(newRand(cfg.seed, streamReadMix), d.corpus, make([]time.Duration, closedSchedule)),
			readConns: readConns, closedReads: true}
	}
	dues := arrivals(newRand(cfg.seed, streamReadArrivals), backgroundRate, cfg.window)
	l := serverLoad{reads: readOps(newRand(cfg.seed, streamReadMix), d.corpus, dues), readConns: readConns - 1}
	dues = arrivals(newRand(cfg.seed, streamWriteArrivals), writeRate, cfg.window)
	if cfg.workload == "write_full" {
		l.writes, l.newPapers = fullWriteOps(newRand(cfg.seed, streamWrites), d.corpus, dues), true
	} else {
		l.writes = pushWriteOps(newRand(cfg.seed, streamWrites), d.corpus, dues)
	}
	return l
}

// runServer runs a server workload: set up, drive, check, and — after
// the measured deployment is gone — time the remaining set-ups.
func runServer(cfg config, dir string, tr *tracer) (*outcome, error) {
	t0 := time.Now()
	d, err := deploy(cfg.papers, filepath.Join(dir, "deploy0"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	out := newOutcome()
	err = driveServer(cfg, d, dir, tr, out)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if tr == nil {
		for i := 1; i < cfg.setups; i++ {
			t0 := time.Now()
			d, err := deploy(cfg.papers, filepath.Join(dir, "deploy"+strconv.Itoa(i)), nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if err := d.close(); err != nil {
				return nil, err
			}
		}
	}
	out.values["setup_s"] = quantile(setups, 0.5)
	return out, nil
}

// driveServer runs the measured phase on d and checks the result.
func driveServer(cfg config, d *deployment, dir string, tr *tracer, out *outcome) error {
	load := planServer(cfg, d)
	obs := startObserver(d.ing, d.fol)
	e0 := d.fol.Ranking().Stats.Edges
	lanes := []lane{{base: d.followerURL, ops: load.reads, conns: load.readConns, closed: load.closedReads}}
	if load.writes != nil {
		lanes = append(lanes, lane{base: d.leaderURL, ops: load.writes, conns: 1})
	}

	cpu0 := cpuTime()
	start := time.Now()
	res := runLanes(start, cfg.window, lanes, tr)

	// Write k (counting acknowledged writes from 1) adds the k-th new
	// edge, so it is visible once the follower serves e0+k edges.
	var acked []int
	if load.writes != nil {
		for i, s := range res[1] {
			if s.ok {
				acked = append(acked, i)
			}
		}
		out.gate(obs.waitEdges(e0+len(acked), visibleWithin),
			"acknowledged writes not visible on the follower %s after the load", visibleWithin)
	}
	cpu := cpuTime() - cpu0
	obs.stop()

	var reads, readsTraced, readsPlain []float64
	for _, s := range res[0] {
		out.attempted++
		if !s.ok {
			out.failed++
			continue
		}
		lat := ms(s.latency())
		reads = append(reads, lat)
		if s.traced {
			readsTraced = append(readsTraced, lat)
		} else {
			readsPlain = append(readsPlain, lat)
		}
	}
	var visible, visTraced, visPlain, acks []float64
	for k, i := range acked {
		o := &load.writes[i]
		at, ok := visibleAt(obs.history, e0+k+1)
		if !ok {
			continue
		}
		v := ms(at.Sub(start.Add(o.due)))
		visible = append(visible, v)
		acks = append(acks, ms(res[1][i].latency()))
		if res[1][i].traced {
			visTraced = append(visTraced, v)
		} else {
			visPlain = append(visPlain, v)
		}
	}
	out.attempted += len(load.writes)
	out.failed += len(load.writes) - len(acked)

	headline, traced, plain, ops := reads, readsTraced, readsPlain, len(res[0])
	if load.writes != nil {
		headline, traced, plain, ops = visible, visTraced, visPlain, len(load.writes)
	}
	out.values["p50_ms"] = quantile(headline, 0.5)
	out.values["cpu_ms_per_op"] = ms(cpu) / float64(ops)
	out.values["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("%s samples %d\n", cfg.workload, len(headline))
	if b := beyond(len(headline), 0.9); b >= minBeyond {
		fmt.Printf("%s p90 %.6g ms, %d samples beyond it (not a metric, see endToEnd in main.go)\n",
			cfg.workload, quantile(headline, 0.9), b)
	}

	checkReplica(d, out)
	if tr == nil {
		return nil
	}

	// Per-layer metrics of a traced run.
	v := out.values
	v["bench.trace_overhead_pct"] = overheadPct(traced, plain)
	v["load.read_p50_ms"] = quantile(reads, 0.5)
	v["load.write_ack_p50_ms"] = quantile(acks, 0.5)
	var lags []float64
	for _, lane := range res {
		for _, s := range lane {
			lags = append(lags, ms(s.lag))
			if s.shed() {
				v["service.shed"]++
			}
		}
	}
	v["load.send_lag_p90_ms"] = quantile(lags, 0.9)
	v["replication.bootstrap_ms"] = ms(d.bootstrap)
	epochMetrics(tr, obs, v)

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, route := range []string{"top", "paper", "impact", "batch"} {
		v["service."+route+"_ms"] = medianMS(spans, self, "service."+route)
	}
	var wire []float64
	for _, s := range spans {
		if s.Name == "load.request" && self[s.ID] < s.dur() {
			wire = append(wire, ms(self[s.ID]))
		}
	}
	v["service.wire_ms"] = quantile(wire, 0.5)
	return replayServer(cfg, d, dir, tr, load, v)
}

// checkReplica is the replication gate: once the load has stopped, the
// leader and the follower publish the same epoch, and the follower's
// scores equal the leader's bit for bit. The follower replays an epoch
// as soon as its marker ships, so it may publish before the leader does.
func checkReplica(d *deployment, out *outcome) {
	deadline := time.Now().Add(visibleWithin)
	lead, loc := d.ing.Ranking(), d.fol.Ranking()
	for lead.Epoch != loc.Epoch || d.ing.Pending() > 0 {
		if time.Now().After(deadline) {
			out.gate(false, "follower at epoch %d, leader at epoch %d with %d writes pending after %s",
				loc.Epoch, lead.Epoch, d.ing.Pending(), visibleWithin)
			return
		}
		time.Sleep(pollEvery)
		lead, loc = d.ing.Ranking(), d.fol.Ranking()
	}
	if loc.Net.N() != lead.Net.N() || len(loc.Result.Scores) != len(lead.Result.Scores) {
		out.gate(false, "follower serves %d papers at epoch %d, leader %d", loc.Net.N(), loc.Epoch, lead.Net.N())
		return
	}
	for i := int32(0); int(i) < lead.Net.N(); i++ {
		j, ok := loc.Net.Lookup(lead.Net.Paper(i).ID)
		if !ok || loc.Result.Scores[j] != lead.Result.Scores[i] {
			out.gate(false, "follower score of %s differs from the leader's", lead.Net.Paper(i).ID)
			return
		}
	}
}

// overheadPct is how much slower, in percent, the traced half of a
// run's units of work was than the untraced half, by their medians.
func overheadPct(traced, plain []float64) float64 {
	p := quantile(plain, 0.5)
	if p == 0 {
		return 0
	}
	return 100 * (quantile(traced, 0.5)/p - 1)
}

// epochMetrics turns the observed epochs into spans and per-layer
// metrics. The first event of each side is the epoch that was already
// published when the load began.
func epochMetrics(tr *tracer, obs *observer, v map[string]float64) {
	publishedAt := make(map[uint64]epochEvent)
	var full, push, batch []float64
	for i, e := range obs.leader {
		publishedAt[e.epoch] = e
		if i == 0 {
			continue
		}
		kind := "full"
		if e.incremental {
			kind = "push"
			push = append(push, ms(e.rerank))
		} else {
			full = append(full, ms(e.rerank))
		}
		writes := e.edges - obs.leader[i-1].edges
		batch = append(batch, float64(writes))
		tr.record(span{Name: "ingest.epoch", ID: tr.newID(), Start: tr.at(e.at.Add(-e.rerank)), End: tr.at(e.at),
			Attrs: map[string]any{"epoch": e.epoch, "kind": kind, "iterations": e.iterations, "writes": writes}})
	}
	if n := len(full) + len(push); n > 0 {
		v["ingest.push_share"] = float64(len(push)) / float64(n)
	}
	v["ingest.epoch_full_ms"] = quantile(full, 0.5)
	v["ingest.epoch_push_ms"] = quantile(push, 0.5)
	v["ingest.writes_per_epoch"] = quantile(batch, 0.5)

	// An epoch's replication runs from the leader starting it — its
	// marker ships to the follower before the leader ranks — until the
	// follower publishes it, which can precede the leader's publication.
	var applyFull, applyPush []float64
	for _, e := range obs.follower[1:] {
		lead, ok := publishedAt[e.epoch]
		if !ok {
			continue // two leader epochs within one poll: the first went unseen
		}
		begun := lead.at.Add(-lead.rerank)
		d := ms(e.at.Sub(begun))
		if e.incremental {
			applyPush = append(applyPush, d)
		} else {
			applyFull = append(applyFull, d)
		}
		tr.record(span{Name: "replication.apply", ID: tr.newID(), Start: tr.at(begun), End: tr.at(e.at),
			Attrs: map[string]any{"epoch": e.epoch, "incremental": e.incremental}})
	}
	v["replication.apply_full_ms"] = quantile(applyFull, 0.5)
	v["replication.apply_push_ms"] = quantile(applyPush, 0.5)
}

// replayServer runs the stage replays of a traced server workload.
func replayServer(cfg config, d *deployment, dir string, tr *tracer, load serverLoad, v map[string]float64) error {
	if load.writes == nil {
		replayTopK(tr, d.fol.Ranking().Result.Scores, load.reads, v)
		return nil
	}
	// Replays start from exact scores: a full epoch over everything.
	if err := d.ing.Flush(); err != nil {
		return err
	}
	r := d.ing.Ranking()
	rng := newRand(cfg.seed, streamCheck)
	batchSize := int(v["ingest.writes_per_epoch"])
	if batchSize < 1 {
		batchSize = 1
	}
	if err := replayWAL(tr, dir, replayBatch(rng, r.Net, 1, load.newPapers), v); err != nil {
		return err
	}
	batch := replayBatch(rng, r.Net, batchSize, load.newPapers)
	if !load.newPapers {
		return replayPush(tr, r, batch, v)
	}
	if err := replayFull(tr, r, batch, v); err != nil {
		return err
	}
	// Coverage: the replayed stages of one full epoch (its marker's WAL
	// append, compaction, the tracker update, ordering, statistics and
	// indicators) against the median full epoch the leader reported.
	if v["ingest.epoch_full_ms"] > 0 {
		sum := 0.0
		for _, name := range []string{"ingest.wal_append_ms", "graph.compact_ms", "core.tracker_update_ms",
			"metrics.ordering_ms", "graph.stats_ms", "impact.compute_ms"} {
			sum += v[name]
		}
		v["ingest.replay_coverage"] = sum / v["ingest.epoch_full_ms"]
	}
	return replayStep(tr, r.Net, v)
}
