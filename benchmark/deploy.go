package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"attrank/internal/core"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/replication"
	"attrank/internal/service"
)

// leaderParams are the AttRank parameters the leader ranks with.
var leaderParams = core.Params{Alpha: 0.5, Beta: 0.3, Gamma: 0.2, AttentionYears: 3, W: -0.16, Workers: -1}

const (
	// rerankEvery replaces the 2 s default debounce so that visibility
	// measures epoch work rather than the timer.
	rerankEvery = 100 * time.Millisecond
	pushTol     = 1e-6
	// requestDeadline is attrank-serve's default -deadline.
	requestDeadline = 2 * time.Second
)

// deployment is the production serving system in one process: a leader
// (live ingester + service + WAL shipping) and one follower replaying it
// (replication client + replica service), each on a loopback listener.
type deployment struct {
	corpus      *graph.Network
	ing         *ingest.Ingester
	fol         *replication.Follower
	leaderURL   string
	followerURL string
	bootstrap   time.Duration // follower start until it serves the leader's epoch

	dir                    string
	leaderSrv, followerSrv *server
}

// server is one HTTP server and the goroutine serving it.
type server struct {
	cancel context.CancelFunc
	done   chan error
}

func serve(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{cancel: cancel, done: make(chan error, 1)}
	opts := service.ServeOptions{WriteTimeout: 2*requestDeadline + 30*time.Second}
	go func() { s.done <- service.ServeListener(ctx, ln, h, opts) }()
	return s, "http://" + ln.Addr().String(), nil
}

func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// admission is attrank-serve's default overload protection.
func admission() service.AdmissionConfig {
	return service.AdmissionConfig{Deadline: requestDeadline, MaxPending: service.DefaultMaxPending}
}

// deploy generates the corpus and brings the leader and the follower
// up, returning once the follower serves the leader's first epoch. With
// a tracer, both servers' handlers record service spans.
func deploy(papers int, dir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.corpus, err = generateCorpus(papers); err != nil {
		return d, err
	}
	if err = checkCorpus(d.corpus); err != nil {
		return d, err
	}
	d.ing, err = ingest.Open(d.corpus, ingest.Config{
		Dir:         filepath.Join(dir, "leader"),
		Params:      leaderParams,
		RerankEvery: rerankEvery,
		PushTol:     pushTol,
		Impact:      impact.Config{Enabled: true},
	})
	if err != nil {
		return d, err
	}
	lead := service.NewLive(d.ing)
	lead.SetLogf(nil)
	lead.AttachReplication(replication.NewLeader(d.ing, replication.LeaderConfig{}).Handler())
	lead.ConfigureAdmission(admission())
	if d.leaderSrv, d.leaderURL, err = start(lead.Handler(), tr); err != nil {
		return d, err
	}

	t0 := time.Now()
	d.fol, err = replication.StartFollower(replication.FollowerConfig{Leader: d.leaderURL, Dir: filepath.Join(dir, "follower")})
	if err != nil {
		return d, err
	}
	if err = d.fol.WaitEpoch(d.ing.Ranking().Epoch, time.Minute); err != nil {
		return d, err
	}
	d.bootstrap = time.Since(t0)
	rep := service.NewReplica(d.fol, 0)
	rep.SetLogf(nil)
	rep.ConfigureAdmission(admission())
	d.followerSrv, d.followerURL, err = start(rep.Handler(), tr)
	return d, err
}

func start(h http.Handler, tr *tracer) (*server, string, error) {
	if tr != nil {
		h = tr.wrap(h)
	}
	return serve(h)
}

// close stops the follower's server, the follower, the leader's server
// and the leader, in that order, and deletes their state.
func (d *deployment) close() error {
	var errs []error
	if d.followerSrv != nil {
		errs = append(errs, d.followerSrv.stop())
	}
	if d.fol != nil {
		errs = append(errs, d.fol.Close())
	}
	if d.leaderSrv != nil {
		errs = append(errs, d.leaderSrv.stop())
	}
	if d.ing != nil {
		errs = append(errs, d.ing.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("tearing down: %w", err)
	}
	return nil
}
