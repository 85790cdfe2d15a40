package replication

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// Follower durable state, all under FollowerConfig.Dir:
//
//	base.anb    — the compacted corpus at the last saved marker boundary
//	vectors.bin — scores, attention, recency at that boundary
//	state.json  — the cursor tying them together (written last; it is
//	              the commit point — a crash mid-save leaves the old
//	              trio intact)
//	wal.log     — every shipped record re-encoded locally, so recovery
//	              can replay the chain forward from the saved boundary
//
// The local encoding is byte-identical to the leader's, so replaying a
// local record advances the leader-coordinate offset by exactly its
// WireSize — that is how recovery recomputes where to resume streaming
// without talking to the leader first.
const (
	baseFile    = "base.anb"
	vectorsFile = "vectors.bin"
	stateFile   = "state.json"
	walFile     = "wal.log"
)

// diskState is state.json: the marker-boundary cursor for the saved
// base + vectors pair.
type diskState struct {
	Instance       uint64      `json:"instance"`
	Gen            uint64      `json:"gen"`
	LeaderOffset   int64       `json:"leader_offset"`
	Epoch          uint64      `json:"epoch"`
	RankedAt       int         `json:"ranked_at"`
	LocalWALOffset int64       `json:"local_wal_offset"`
	Papers         int         `json:"papers"`
	Params         wireParams  `json:"params"`
	PushTol        float64     `json:"push_tol,omitempty"`
	Impact         *wireImpact `json:"impact,omitempty"`
}

// saveState persists the follower's last FULL marker boundary: corpus,
// the three exact ranking vectors, then state.json as the commit
// record. Push-mode epochs past that boundary are deliberately not the
// anchor — their scores are approximate and their mutations are still
// in the local WAL, so recovery replays them through the same push
// path the stream used.
func (f *Follower) saveState() error {
	r := f.lastFull
	if r == nil || f.base == nil {
		return fmt.Errorf("replication: no state to save")
	}
	if err := dataio.SaveBinaryAtomic(filepath.Join(f.dir, baseFile), f.base); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, v := range [][]float64{r.Result.Scores, r.Result.Attention, r.Result.Recency} {
		if err := writeVector(&buf, v); err != nil {
			return err
		}
	}
	if err := writeFileAtomic(filepath.Join(f.dir, vectorsFile), buf.Bytes()); err != nil {
		return err
	}
	st := diskState{
		Instance:       f.instance,
		Gen:            f.gen,
		LeaderOffset:   f.markerLeaderOff,
		Epoch:          r.Epoch,
		RankedAt:       r.RankedAt,
		LocalWALOffset: f.markerLocalOff,
		Papers:         f.base.N(),
		Params:         f.wp,
		PushTol:        f.pushTol,
		Impact:         wireImpactOf(f.impactCfg),
	}
	js, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(f.dir, stateFile), append(js, '\n'))
}

// recover rebuilds the follower from its durable state: seed the chain
// at the saved marker boundary, then replay the local WAL tail forward
// through the same apply path the stream uses. Returns errNoState when
// the directory holds no state (first start), any other error meaning
// the state is unusable (caller wipes and re-bootstraps).
func (f *Follower) recover() error {
	js, err := os.ReadFile(filepath.Join(f.dir, stateFile))
	if os.IsNotExist(err) {
		return errNoState
	}
	if err != nil {
		return err
	}
	var st diskState
	if err := json.Unmarshal(js, &st); err != nil {
		return fmt.Errorf("replication: state.json: %w", err)
	}
	net, err := dataio.LoadBinaryFile(filepath.Join(f.dir, baseFile))
	if err != nil {
		return err
	}
	if net.N() != st.Papers {
		return fmt.Errorf("replication: base.anb has %d papers, state.json says %d", net.N(), st.Papers)
	}
	vf, err := os.Open(filepath.Join(f.dir, vectorsFile))
	if err != nil {
		return err
	}
	defer vf.Close()
	vecs := make([][]float64, 3)
	for i := range vecs {
		if vecs[i], err = readVector(vf, net.N()); err != nil {
			return err
		}
	}
	f.impactCfg = st.Impact.config()
	if err := f.seedChain(net, st.Params, vecs[0], vecs[1], vecs[2], st.Epoch, st.RankedAt); err != nil {
		return err
	}
	f.instance, f.gen = st.Instance, st.Gen
	f.pushTol = st.PushTol
	f.markerLeaderOff, f.markerLocalOff = st.LeaderOffset, st.LocalWALOffset
	f.streamOff, f.localWALOff = st.LeaderOffset, st.LocalWALOffset

	// Replay the local WAL tail through the normal apply path (minus the
	// re-append): markers past the boundary re-rank and re-publish, and
	// both offsets advance record by record because the local encoding
	// matches the leader's byte for byte.
	wal, err := ingest.OpenWALAt(filepath.Join(f.dir, walFile), st.LocalWALOffset, func(m ingest.Mutation) error {
		size, err := m.WireSize()
		if err != nil {
			return err
		}
		return f.applyRecord(m, size, false)
	})
	if err != nil {
		return fmt.Errorf("replication: local wal replay: %w", err)
	}
	if torn := wal.TornTail(); torn != nil {
		// Expected crash aftermath: the torn suffix was never applied,
		// and the stream will re-ship it from streamOff.
		f.logf("repl: follower: local wal torn tail truncated: %v", torn)
	}
	f.wal = wal
	f.logf("repl: follower recovered: epoch %d, %d papers, resume offset %d", f.epochV, f.base.N(), f.streamOff)
	return nil
}

// seedChain installs a (corpus, vectors) pair as the follower's chain
// state at the given epoch: corpus published, tracker seeded with the
// scores so the next Update continues the leader's warm-start chain.
func (f *Follower) seedChain(net *graph.Network, wp wireParams, scores, att, rec []float64, epoch uint64, rankedAt int) error {
	params := wp.params()
	tracker, err := core.NewTracker(params)
	if err != nil {
		return err
	}
	if err := tracker.Seed(net, scores); err != nil {
		return err
	}
	f.base, f.delta, f.tracker = net, nil, tracker
	f.applied, f.pusher = 0, nil
	f.wp = wp
	f.params.Store(&params)
	f.epochV, f.rankedAt = epoch, rankedAt
	// The seeded state is always a full (exact) boundary: ReplState
	// anchors bootstraps there, and saveState anchors recovery there.
	// Neither ships an iteration count, so the seeded Result reports 0.
	res := &core.Result{Scores: scores, Attention: att, Recency: rec, Converged: true}
	f.publishFull(ingest.FullRanking(epoch, net, res, rankedAt, f.impactCfg, f.logf))
	return nil
}

// wipe discards all durable follower state; the next session starts
// with a full bootstrap. The last published ranking stays visible —
// stale reads are the admission layer's problem (epoch-lag gating), and
// serving them beats serving nothing during a resync.
func (f *Follower) wipe() {
	if f.wal != nil {
		f.wal.Close()
		f.wal = nil
	}
	for _, name := range []string{stateFile, vectorsFile, baseFile, walFile} {
		if err := os.Remove(filepath.Join(f.dir, name)); err != nil && !os.IsNotExist(err) {
			f.logf("repl: follower wipe %s: %v", name, err)
		}
	}
	f.instance, f.gen = 0, 0
	f.base, f.delta, f.tracker = nil, nil, nil
	f.applied, f.pusher, f.lastFull, f.pushTol = 0, nil, nil, 0
	f.impactCfg = impact.Config{}
	f.pend = nil
	f.streamOff, f.localWALOff = 0, 0
	f.markerLeaderOff, f.markerLocalOff = 0, 0
}

// writeFileAtomic writes data via a temp file + rename, so a crash
// mid-write never leaves a half-written file under the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
