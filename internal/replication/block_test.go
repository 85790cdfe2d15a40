package replication

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"attrank/internal/core"
	"attrank/internal/ingest"
	"attrank/internal/sparse"
)

// TestEpochBlockSpansFrames: a block whose vectors are many times one
// frame's payload is cut into frames of at most chunkSize bytes, far
// below MaxFramePayload, and reassembles to its exact bits — full, push
// and indicator blocks alike.
func TestEpochBlockSpansFrames(t *testing.T) {
	for _, b := range []*epochBlock{testBlock(false, 20000), testBlock(true, 20000), testIndicatorBlock(20000)} {
		wire := blockFrames(t, b, chunkSize)
		r := bytes.NewReader(wire)
		frames := 0
		var buf []byte
		for r.Len() > 0 {
			typ, payload, nbuf, err := ReadFrame(r, buf)
			buf = nbuf
			if err != nil {
				t.Fatal(err)
			}
			if typ != frameEpoch || len(payload) > chunkSize {
				t.Fatalf("frame %d: type %q of %d bytes, want an epoch frame of at most %d", frames, typ, len(payload), chunkSize)
			}
			frames++
		}
		if min := len(blockBytes(t, b))/chunkSize + 1; frames < min {
			t.Fatalf("kind %q: %d frames, want at least %d", b.kind, frames, min)
		}
		got, err := readBlock(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blockBytes(t, got), blockBytes(t, b)) {
			t.Fatalf("kind %q: block did not round-trip across %d frames", b.kind, frames)
		}
	}
}

// blockCutTransport cuts the first /repl/wal stream right before the
// first frame of epoch at's block, and holds every later stream until
// release is closed.
type blockCutTransport struct {
	base    http.RoundTripper
	at      uint64
	release chan struct{}
	streams atomic.Int32
}

func (bt *blockCutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, walPath) {
		return bt.base.RoundTrip(req)
	}
	if bt.streams.Add(1) > 1 {
		select {
		case <-bt.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return bt.base.RoundTrip(req)
	}
	resp, err := bt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &frameCut{rc: resp.Body, at: bt.at}
	return resp, nil
}

// frameCut passes a stream's frames through until the block of epoch
// at begins, then fails.
type frameCut struct {
	rc      io.ReadCloser
	at      uint64
	out     bytes.Buffer
	buf     []byte
	inBlock bool
}

func (fc *frameCut) Read(p []byte) (int, error) {
	for fc.out.Len() == 0 {
		typ, payload, nbuf, err := ReadFrame(fc.rc, fc.buf)
		fc.buf = nbuf
		if err != nil {
			return 0, err
		}
		if typ == frameEpoch {
			// A block's first payload: continuation byte, kind, epoch.
			if !fc.inBlock && len(payload) >= 10 && binary.LittleEndian.Uint64(payload[2:10]) == fc.at {
				return 0, io.ErrUnexpectedEOF
			}
			fc.inBlock = payload[0] == 1
		}
		if err := WriteFrame(&fc.out, typ, payload); err != nil {
			return 0, err
		}
	}
	return fc.out.Read(p)
}

func (fc *frameCut) Close() error { return fc.rc.Close() }

// TestFollowerSkipsMissedBlock: a stream cut between an epoch's marker
// and its block, which stays cut until the leader has published the
// next epoch. The follower publishes that next epoch from its block,
// skips the missed one, and needs no resync. The skip is counted in
// attrank_repl_epochs_skipped_total, and the applied block's wait in
// attrank_repl_frame_wait_seconds.
func TestFollowerSkipsMissedBlock(t *testing.T) {
	ing, srv := startLeader(t)
	cut := &blockCutTransport{base: http.DefaultTransport.(*http.Transport).Clone(),
		at: ing.Ranking().Epoch + 1, release: make(chan struct{})}
	cfg := followerConfig(t, srv.URL)
	cfg.Client = &http.Client{Transport: cut}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill)
	assertIdentical(t, ing, f)
	waits, skipped := mFrameWait.Count(), mEpochsSkipped.Value()

	leaderWrite(t, ing, "missed", 2)
	deadline := time.Now().Add(10 * time.Second)
	for cut.streams.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the stream was not cut before the missed epoch's block")
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := f.Ranking().Epoch, cut.at-1; got != want {
		t.Fatalf("follower published epoch %d without its block, want %d", got, want)
	}
	leaderWrite(t, ing, "next", 2)
	close(cut.release)
	assertIdentical(t, ing, f)
	if got := ing.Ranking().Epoch; got != cut.at+1 {
		t.Fatalf("leader at epoch %d, want %d", got, cut.at+1)
	}
	if got := mEpochsSkipped.Value() - skipped; got != 1 {
		t.Errorf("attrank_repl_epochs_skipped_total rose by %d, want 1", got)
	}
	if mFrameWait.Count() == waits {
		t.Error("attrank_repl_frame_wait_seconds observed no block")
	}
	if got := f.Info().FullResyncs; got != 0 {
		t.Errorf("FullResyncs = %d, want 0", got)
	}
}

// TestFollowerCatchUpCompilesNoKernel: a follower restarted behind a
// leader with indicators on catches up over full and push epochs while
// the leader is idle, and compiles no ranking kernel doing it: it runs
// neither AttRank nor the influence PageRank.
func TestFollowerCatchUpCompilesNoKernel(t *testing.T) {
	ing, srv := startImpactLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill)
	assertImpactIdentical(t, ing, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		id := fmt.Sprintf("c-%d", round)
		if res, err := ing.ApplyBatch([]ingest.Mutation{
			{Kind: ingest.KindPaper, Paper: ingest.PaperMut{ID: id, Year: 2010 + round}},
			{Kind: ingest.KindCitation, Citation: ingest.CitationMut{Citing: id, Cited: "s5"}},
		}); err != nil || len(res.Errors) > 0 {
			t.Fatalf("ApplyBatch: %v %+v", err, res)
		}
		if err := ing.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	leaderPush(t, ing, "s150", "s3")
	if ing.Pending() != 0 || !ing.Ranking().Incremental {
		t.Fatalf("leader not idle at a push epoch: %d pending, incremental %v", ing.Pending(), ing.Ranking().Incremental)
	}

	compiles, builds := core.KernelCompiles(), sparse.TiledBuilds()
	re, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	assertImpactIdentical(t, ing, re)
	if d, b := core.KernelCompiles()-compiles, sparse.TiledBuilds()-builds; d != 0 || b != 0 {
		t.Fatalf("catching up compiled %d kernels and built %d tiled layouts, want 0", d, b)
	}
	if got := re.Info().FullResyncs; got != 0 {
		t.Fatalf("FullResyncs = %d, want 0", got)
	}
}

// TestFollowerBootstrapReportsLeaderIterations: a bootstrapped follower
// publishes the leader's convergence diagnostics with the epoch, not 0
// iterations and no residuals.
func TestFollowerBootstrapReportsLeaderIterations(t *testing.T) {
	ing, srv := startLeader(t)
	leaderWrite(t, ing, "warm", 3)
	f, err := StartFollower(followerConfig(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	assertIdentical(t, ing, f)
	lr, fr := ing.Ranking().Result, f.Ranking().Result
	if fr.Iterations == 0 || fr.Iterations != lr.Iterations || fr.Converged != lr.Converged {
		t.Fatalf("bootstrapped follower reports %d iterations (converged %v), leader %d (converged %v)",
			fr.Iterations, fr.Converged, lr.Iterations, lr.Converged)
	}
	if len(fr.Residuals) == 0 || !slices.Equal(fr.Residuals, lr.Residuals) {
		t.Fatalf("bootstrapped follower residuals %v, leader %v", fr.Residuals, lr.Residuals)
	}
}

// TestFollowerServesSavedEpochWithLeaderDown: a follower killed after
// publishing full epochs past its bootstrap, then restarted while the
// leader is down, serves the last full epoch it applied, bit for bit
// and with the leader's diagnostics, from its saved block and local
// WAL alone.
func TestFollowerServesSavedEpochWithLeaderDown(t *testing.T) {
	ing, srv := startLeader(t)
	cfg := followerConfig(t, srv.URL)
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Kill)
	leaderWrite(t, ing, "a", 2)
	leaderWrite(t, ing, "b", 3)
	assertIdentical(t, ing, f)
	want := ing.Ranking()
	f.Kill()
	srv.Close()

	re, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(re.Kill)
	got := re.Ranking()
	if got == nil || got.Epoch != want.Epoch || got.Net.N() != want.Net.N() || got.Stats != want.Stats {
		t.Fatalf("restarted follower serves %+v, want epoch %d of %d papers", re.Info(), want.Epoch, want.Net.N())
	}
	for i, s := range want.Result.Scores {
		if got.Result.Scores[i] != s {
			t.Fatalf("paper %d: restarted follower score %v, leader %v", i, got.Result.Scores[i], s)
		}
	}
	if got.Result.Iterations != want.Result.Iterations || !slices.Equal(got.Result.Residuals, want.Result.Residuals) {
		t.Fatalf("restarted follower reports %d iterations, leader %d", got.Result.Iterations, want.Result.Iterations)
	}
	if n := re.Info().FullResyncs; n != 0 {
		t.Fatalf("FullResyncs = %d, want 0", n)
	}
}
