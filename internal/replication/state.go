package replication

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// Follower durable state, all under FollowerConfig.Dir:
//
//	base.anb    — the compacted corpus at the save point, a full
//	              marker boundary
//	state.json  — the cursor tying base.anb to the local WAL (written
//	              last; it is the commit point of a save)
//	vectors.bin — the block (block.go) of the last published full
//	              epoch: the save point's, or a later one's, rewritten
//	              once per full epoch: when its indicators are
//	              attached (the block then carries its influence), or
//	              at publication when indicators are off
//	wal.log     — every shipped record re-encoded locally, so recovery
//	              can compact forward from the save point
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
// base. An older release's "push_tol" key is ignored on decode.
type diskState struct {
	Instance       uint64      `json:"instance"`
	Gen            uint64      `json:"gen"`
	LeaderOffset   int64       `json:"leader_offset"`
	Epoch          uint64      `json:"epoch"`
	RankedAt       int         `json:"ranked_at"`
	LocalWALOffset int64       `json:"local_wal_offset"`
	Papers         int         `json:"papers"`
	Params         wireParams  `json:"params"`
	Impact         *wireImpact `json:"impact,omitempty"`
}

// saveState makes the last published full epoch the save point: its
// corpus, its block, then state.json as the commit record. Push epochs
// past it are deliberately not saved — their mutations are in the local
// WAL, and the stream re-sends the newest push epoch's block.
func (f *Follower) saveState() error {
	if f.chain == nil || f.chain.Last() == nil {
		return fmt.Errorf("replication: no state to save")
	}
	r := f.chain.Last()
	if err := dataio.SaveBinaryAtomic(filepath.Join(f.dir, baseFile), r.Net); err != nil {
		return err
	}
	if err := f.saveBlock(blockOf(r, true)); err != nil {
		return err
	}
	st := diskState{
		Instance:       f.instance,
		Gen:            f.gen,
		LeaderOffset:   f.markerLeaderOff,
		Epoch:          r.Epoch,
		RankedAt:       r.RankedAt,
		LocalWALOffset: f.markerLocalOff,
		Papers:         r.Net.N(),
		Params:         wireParamsOf(f.Params()),
		Impact:         wireImpactOf(f.impactCfg),
	}
	js, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return dataio.WriteFileAtomic(filepath.Join(f.dir, stateFile), func(w io.Writer) error {
		_, err := w.Write(append(js, '\n'))
		return err
	})
}

// saveBlock atomically replaces vectors.bin with b.
func (f *Follower) saveBlock(b *epochBlock) error {
	return dataio.WriteFileAtomic(filepath.Join(f.dir, vectorsFile), func(w io.Writer) error {
		return writeBlock(w, b, make([]byte, chunkSize))
	})
}

// recover rebuilds the follower from its durable state: start at the
// saved boundary, then replay the local WAL tail forward through the
// same apply path the stream uses, which compacts at every full marker
// and publishes the saved block's epoch at its marker. Returns
// errNoState when the directory holds no state (first start), any
// other error meaning the state is unusable (caller wipes and
// re-bootstraps).
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
	blk, err := readBlock(bufio.NewReader(vf))
	vf.Close()
	if err != nil {
		return fmt.Errorf("replication: %s: %w", vectorsFile, err)
	}
	f.instance, f.gen = st.Instance, st.Gen
	f.streamOff, f.localWALOff = st.LeaderOffset, st.LocalWALOffset
	start := mark{epoch: st.Epoch, rankedAt: st.RankedAt, net: net, leaderOff: st.LeaderOffset, localOff: st.LocalWALOffset}
	if err := f.start(st.Params, st.Impact, start, blk); err != nil {
		return err
	}

	// Replay the local WAL tail through the normal apply path (minus the
	// re-append): both offsets advance record by record because the
	// local encoding matches the leader's byte for byte.
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
	if f.published == 0 {
		wal.Close()
		return fmt.Errorf("replication: the local wal ends before the marker of saved epoch %d", blk.epoch)
	}
	if torn := wal.TornTail(); torn != nil {
		// Expected crash aftermath: the torn suffix was never applied,
		// and the stream will re-ship it from streamOff.
		f.logf("repl: follower: local wal torn tail truncated: %v", torn)
	}
	f.wal = wal
	f.logf("repl: follower recovered: epoch %d, %d papers, resume offset %d", f.published, f.chain.Last().Net.N(), f.streamOff)
	return nil
}

// start installs a fresh chain under the leader's parameters and
// indicator configuration, with m — a bootstrap's or the saved state's
// full boundary — as the last applied marker, then applies the block
// blk: the boundary's own, which it publishes at once, or, in recovery,
// a later full epoch's, held until replay reaches its marker.
func (f *Follower) start(wp wireParams, wi *wireImpact, m mark, blk *epochBlock) error {
	params := wp.params()
	f.impactCfg = wi.config()
	chain, err := ingest.NewChain(params, core.PushConfig{}, f.impactCfg, f.logf)
	if err != nil {
		return err
	}
	f.chain, f.published, f.held, f.heldInd = chain, 0, nil, nil
	f.base, f.delta, f.sinceMark, f.lastMark = m, nil, 0, m.epoch
	f.marks = []mark{m}
	f.markerLeaderOff, f.markerLocalOff = m.leaderOff, m.localOff
	f.params.Store(&params)
	return f.applyBlock(blk)
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
	f.chain, f.published = nil, 0
	f.base, f.delta, f.sinceMark, f.lastMark = mark{}, nil, 0, 0
	f.marks, f.held, f.heldInd, f.acc = nil, nil, nil, nil
	f.impactCfg = impact.Config{}
	f.pend = nil
	f.streamOff, f.localWALOff = 0, 0
	f.markerLeaderOff, f.markerLocalOff = 0, 0
}
