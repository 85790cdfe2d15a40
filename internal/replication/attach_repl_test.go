package replication

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"attrank/internal/impact"
	"attrank/internal/ingest"
)

// startAttachLeader is startLeader with indicators on: every epoch comes
// from a Flush, which returns once the epoch's indicators are attached,
// so each epoch's indicator block follows its full block on the stream.
func startAttachLeader(t *testing.T) (*ingest.Ingester, *httptest.Server) {
	t.Helper()
	ing, err := ingest.Open(seedNet(t), ingest.Config{
		Dir:         t.TempDir(),
		Params:      testParams(),
		RerankAfter: 1 << 20,
		RerankEvery: time.Hour,
		Impact:      impact.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	l := NewLeader(ing, LeaderConfig{Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond})
	srv := httptest.NewServer(l.Handler())
	t.Cleanup(srv.Close)
	return ing, srv
}

// blockRewrite rewrites the epoch blocks of every /repl/wal stream:
// with dropIndicators it drops every indicator block; otherwise it holds
// the full block of epoch at until that epoch's indicator block has
// passed, so the follower gets the indicators first. reordered is set
// once it has.
type blockRewrite struct {
	base           http.RoundTripper
	at             uint64
	dropIndicators bool
	reordered      atomic.Bool
}

func (br *blockRewrite) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := br.base.RoundTrip(req)
	if err != nil || !strings.HasPrefix(req.URL.Path, walPath) {
		return resp, err
	}
	resp.Body = &blockRewriter{rc: resp.Body, br: br}
	return resp, nil
}

// blockRewriter is blockRewrite on one stream's frames.
type blockRewriter struct {
	rc        io.ReadCloser
	br        *blockRewrite
	buf       []byte
	out, held bytes.Buffer
	// kind and epoch of the block whose frames are passing, if any.
	inBlock bool
	kind    byte
	epoch   uint64
}

func (rw *blockRewriter) Read(p []byte) (int, error) {
	for rw.out.Len() == 0 {
		typ, payload, nbuf, err := ReadFrame(rw.rc, rw.buf)
		rw.buf = nbuf
		if err != nil {
			return 0, err
		}
		dst := &rw.out
		if typ == frameEpoch {
			if !rw.inBlock && len(payload) >= 10 {
				rw.kind, rw.epoch = payload[1], binary.LittleEndian.Uint64(payload[2:10])
			}
			rw.inBlock = payload[0] == 1
			switch {
			case rw.kind == blockIndicators && rw.br.dropIndicators:
				continue
			case rw.kind == blockFull && rw.epoch == rw.br.at && !rw.br.dropIndicators && !rw.br.reordered.Load():
				dst = &rw.held
			}
		}
		if err := WriteFrame(dst, typ, payload); err != nil {
			return 0, err
		}
		if typ == frameEpoch && !rw.inBlock && rw.kind == blockIndicators && rw.epoch == rw.br.at && rw.held.Len() > 0 {
			rw.held.WriteTo(&rw.out)
			rw.br.reordered.Store(true)
		}
	}
	return rw.out.Read(p)
}

func (rw *blockRewriter) Close() error { return rw.rc.Close() }

// flushPaper adds one paper citing the seed corpus and flushes: one full
// epoch, its indicators attached when Flush returns.
func flushPaper(t *testing.T, ing *ingest.Ingester, id string) uint64 {
	t.Helper()
	if _, err := ing.AddPaper(ingest.PaperMut{ID: id, Year: 1997}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.AddCitation(ingest.CitationMut{Citing: id, Cited: "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	r := ing.Ranking()
	if r.ImpactEpoch != r.Epoch {
		t.Fatalf("Flush returned epoch %d with epoch %d's indicators", r.Epoch, r.ImpactEpoch)
	}
	return r.Epoch
}

// TestFollowerIndicatorBlockOrder: a follower attaches a full epoch's
// indicators whether their block arrives after the epoch's full block
// (the leader's order) or before it (held until the full epoch is
// published), and lands bit-identical to the leader both times, with
// nothing counted as superseded.
func TestFollowerIndicatorBlockOrder(t *testing.T) {
	ing, srv := startAttachLeader(t)
	rw := &blockRewrite{base: http.DefaultTransport.(*http.Transport).Clone(), at: ing.Ranking().Epoch + 1}
	cfg := followerConfig(t, srv.URL)
	cfg.Client = &http.Client{Transport: rw}
	f, err := StartFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	assertImpactIdentical(t, ing, f)
	superseded := ingest.ImpactAttachSuperseded.With("follower").Value()
	attaches := ingest.ImpactAttachSeconds.With("follower").Count()

	if e := flushPaper(t, ing, "before"); e != rw.at {
		t.Fatalf("leader published epoch %d, want %d", e, rw.at)
	}
	assertImpactIdentical(t, ing, f)
	if !rw.reordered.Load() {
		t.Fatal("the stream did not deliver the indicator block first")
	}
	flushPaper(t, ing, "after")
	assertImpactIdentical(t, ing, f)
	if got := ingest.ImpactAttachSeconds.With("follower").Count() - attaches; got != 2 {
		t.Errorf("attrank_impact_attach_seconds{role=follower} observed %d attaches, want 2", got)
	}
	if got := ingest.ImpactAttachSuperseded.With("follower").Value() - superseded; got != 0 {
		t.Errorf("attrank_impact_attach_superseded_total{role=follower} rose by %d, want 0", got)
	}
	if got := f.Info().FullResyncs; got != 0 {
		t.Fatalf("FullResyncs = %d, want 0", got)
	}
}

// TestFollowerRecoversSavedIndicators: a follower restarted with the
// leader down republishes its saved full epoch with the indicators
// saved with it. vectors.bin holds the influence when the epoch's
// indicators were attached before it was saved (recovery derives the
// same classes as the leader's), and none when they were not (recovery
// serves the epoch without indicators).
func TestFollowerRecoversSavedIndicators(t *testing.T) {
	t.Run("with influence", func(t *testing.T) {
		ing, srv := startAttachLeader(t)
		cfg := followerConfig(t, srv.URL)
		f, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Kill)
		flushPaper(t, ing, "saved")
		assertImpactIdentical(t, ing, f) // the attach saved vectors.bin
		want := ing.Ranking()
		f.Kill()
		srv.Close()

		re, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(re.Kill)
		got := re.Ranking()
		if got == nil || got.Epoch != want.Epoch || got.ImpactEpoch != want.Epoch || got.Impact == nil {
			t.Fatalf("restarted follower serves %+v, want epoch %d with its own indicators", re.Info(), want.Epoch)
		}
		for ind := impact.Indicator(0); ind < impact.NumIndicators; ind++ {
			if got.Impact.Thresholds(ind) != want.Impact.Thresholds(ind) {
				t.Fatalf("%s thresholds %v, leader %v", ind, got.Impact.Thresholds(ind), want.Impact.Thresholds(ind))
			}
			for i, s := range want.Impact.Scores(ind) {
				if got.Impact.Scores(ind)[i] != s {
					t.Fatalf("paper %d: %s score %v, leader %v", i, ind, got.Impact.Scores(ind)[i], s)
				}
			}
		}
	})
	t.Run("without influence", func(t *testing.T) {
		ing, srv := startAttachLeader(t)
		cfg := followerConfig(t, srv.URL)
		cfg.Client = &http.Client{Transport: &blockRewrite{base: http.DefaultTransport.(*http.Transport).Clone(), dropIndicators: true}}
		f, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Kill)
		e := flushPaper(t, ing, "unattached")
		if err := f.WaitEpoch(e, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if r := f.Ranking(); r.ImpactEpoch == e {
			t.Fatal("the follower attached indicators whose block was dropped")
		}
		if err := f.Close(); err != nil { // saves the epoch without its indicators
			t.Fatal(err)
		}
		srv.Close()

		re, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(re.Kill)
		got := re.Ranking()
		if got == nil || got.Epoch != e || got.Impact != nil || got.ImpactEpoch != 0 {
			t.Fatalf("restarted follower serves %+v with indicators of epoch %d, want epoch %d without", re.Info(), got.ImpactEpoch, e)
		}
	})
}
