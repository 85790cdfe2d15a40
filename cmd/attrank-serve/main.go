// Command attrank-serve exposes a ranked citation corpus over HTTP (see
// internal/service for the endpoint list).
//
// Usage:
//
//	attrank-serve -in network.tsv [-addr :8080] [-alpha 0.2 -beta 0.5 -gamma 0.3 -y 3] [-w 0] [-pprof]
//	attrank-serve -wal state/ [-in seed.tsv] [-rerank-after 256] [-rerank-every 2s] [-snapshot-every 4096]
//	attrank-serve ... [-deadline 2s] [-max-inflight 0] [-queue 0] [-max-pending 4096]
//	attrank-serve ... [-indicators [-impulse-window 3]]
//
// -indicators additionally serves the multi-indicator impact layer (see
// internal/impact and DESIGN.md §15) at GET /v1/impact/{id} and POST
// /v1/impact/batch: per-paper AttRank popularity, PageRank influence,
// windowed-citation impulse and total citation count, each with a
// percentile impact class (C1–C5). In live mode each full epoch is
// published first and its indicators computed after, in the
// background; until they are attached it serves the previous full
// epoch's, marked stale. A leader ships the configuration and each
// epoch's influence scores to its followers, which derive the classes
// bit-for-bit.
//
// Every server runs behind the overload-protection layer (see
// internal/service and DESIGN.md §10): at most -max-inflight requests
// execute concurrently (0 = 4 per core), up to -queue more wait in a
// FIFO queue (0 = same as -max-inflight), excess load is shed with
// 503 + Retry-After, writes are shed with 429 while more than
// -max-pending mutations await compaction (negative disables), and every
// admitted request carries a -deadline context deadline. /healthz,
// /readyz and /metrics bypass admission so probes keep answering under
// overload.
//
// Every server exposes Prometheus metrics at GET /metrics; -pprof
// additionally mounts the net/http/pprof profiling handlers under
// /debug/pprof/ (off by default — they expose stacks and heap data).
//
// Replication (-role, see internal/replication and DESIGN.md §12):
//
//	attrank-serve -role leader -wal state/ -in seed.tsv
//	attrank-serve -role follower -peers http://leader:8080 -wal follower-state/ [-max-lag 8]
//
// A leader is a live server that additionally ships its write-ahead log
// and each published epoch's computed vectors to followers over /repl/.
// A follower bootstraps its corpus and scores from the leader, compacts
// the shipped log itself and publishes each epoch from the leader's
// vectors (rankings bit-identical to the leader's), serves every read
// endpoint locally, and sheds reads with 503 + Retry-After once it falls
// more than -max-lag epochs behind. Writes to a follower answer 503
// pointing at the leader. -max-rps additionally caps the admitted
// request rate per replica (0 = uncapped).
//
// Without -wal the server is read-only: it ranks the corpus once at
// startup and serves it. With -wal it runs the live-ingestion subsystem
// (internal/ingest): mutations posted to /v1/papers, /v1/citations and
// /v1/batch are made durable in a write-ahead log under the given
// directory, compacted into the corpus in the background, and re-ranked
// on a debounce schedule. On restart the corpus is recovered from the
// snapshot plus the WAL tail; -in then only seeds a fresh, empty
// directory.
//
// Example read-only session:
//
//	attrank-serve -in dblp.tsv &
//	curl localhost:8080/v1/top?n=5
//	curl localhost:8080/v1/paper/p42
//
// Example live session:
//
//	attrank-serve -wal state/ -in dblp.tsv &
//	curl -X POST localhost:8080/v1/papers -d '{"id":"p-new","year":2021,"authors":["ada"]}'
//	curl -X POST localhost:8080/v1/citations -d '{"citing":"p-new","cited":"p42"}'
//	curl localhost:8080/v1/epoch
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/graph"
	"attrank/internal/impact"
	"attrank/internal/ingest"
	"attrank/internal/replication"
	"attrank/internal/service"
)

func main() {
	var (
		in      = flag.String("in", "", "input network file (.tsv, .json or .anb)")
		addr    = flag.String("addr", ":8080", "listen address")
		alpha   = flag.Float64("alpha", 0.2, "AttRank α")
		beta    = flag.Float64("beta", 0.5, "AttRank β")
		gamma   = flag.Float64("gamma", 0.3, "AttRank γ")
		y       = flag.Int("y", 3, "attention window in years")
		w       = flag.Float64("w", 0, "recency exponent (0 = fit from data)")
		now     = flag.Int("now", 0, "current time tN (default: newest year)")
		workers = flag.Int("workers", -1, "power-iteration workers per (re-)rank: negative = one per CPU core (default — a server should rank as fast as the machine allows), 0 or 1 = on the ranking goroutine, N > 1 = at most N; every value gives the same ranking. Followers rank on their own cores")

		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")

		deadline    = flag.Duration("deadline", 2*time.Second, "per-request deadline propagated to handlers")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = 4 per core)")
		queue       = flag.Int("queue", 0, "admission FIFO queue length before shedding (0 = same as -max-inflight)")
		maxPending  = flag.Int("max-pending", service.DefaultMaxPending, "shed writes while this many mutations await compaction (negative disables)")

		wal           = flag.String("wal", "", "live mode: durable state directory (WAL + snapshots)")
		rerankAfter   = flag.Int("rerank-after", ingest.DefaultRerankAfter, "live mode: re-rank after this many pending mutations")
		rerankEvery   = flag.Duration("rerank-every", ingest.DefaultRerankEvery, "live mode: re-rank at most this long after a mutation")
		snapshotEvery = flag.Int("snapshot-every", ingest.DefaultSnapshotEvery, "live mode: snapshot after this many compacted mutations (negative disables)")
		pushTol       = flag.Float64("push-tol", 0, "live mode: enable incremental (push) re-ranks settled to this residual L1 tolerance, e.g. 1e-6 (0 disables: every epoch is a full re-rank)")
		pushReconcile = flag.Int("push-reconcile", ingest.DefaultReconcileEvery, "live mode: force a full reconciling re-rank after this many consecutive push epochs (negative disables the cadence cap)")

		indicators    = flag.Bool("indicators", false, "serve the multi-indicator impact layer at /v1/impact/ (AttRank popularity, PageRank influence, windowed impulse, citation count, each with C1–C5 classes)")
		impulseWindow = flag.Int("impulse-window", impact.DefaultImpulseWindow, "impulse indicator: count citations from the most recent N years")

		role   = flag.String("role", "", "replication role: empty (standalone), \"leader\" (requires -wal), \"follower\" (requires -peers and -wal as the local state directory)")
		peers  = flag.String("peers", "", "follower mode: the leader's base URL, e.g. http://leader:8080")
		maxLag = flag.Int("max-lag", service.DefaultMaxLag, "follower mode: shed reads when more than this many epochs behind the leader")
		maxRPS = flag.Float64("max-rps", 0, "cap admitted requests per second (0 = uncapped); excess sheds with 429")
	)
	flag.Parse()
	if *role != "" && *role != "leader" && *role != "follower" {
		fmt.Fprintln(os.Stderr, "attrank-serve: -role must be empty, \"leader\" or \"follower\"")
		os.Exit(2)
	}
	if *role == "follower" {
		if *peers == "" || *wal == "" {
			fmt.Fprintln(os.Stderr, "attrank-serve: -role follower requires -peers (leader URL) and -wal (local state directory)")
			os.Exit(2)
		}
	} else if *in == "" && *wal == "" {
		fmt.Fprintln(os.Stderr, "attrank-serve: -in or -wal is required")
		flag.Usage()
		os.Exit(2)
	}
	if *role == "leader" && *wal == "" {
		fmt.Fprintln(os.Stderr, "attrank-serve: -role leader requires -wal (followers ship the write-ahead log)")
		os.Exit(2)
	}
	impactCfg := impact.Config{
		Enabled:       *indicators,
		ImpulseWindow: *impulseWindow,
	}
	var (
		srv *service.Server
		ing *ingest.Ingester
		err error
	)
	switch {
	case *role == "follower":
		if *indicators {
			// A follower reproduces the leader's epochs bit-for-bit, so the
			// indicator configuration ships in the replication state header
			// rather than being set locally.
			log.Printf("attrank-serve: -indicators is inherited from the leader in follower mode")
		}
		var fol *replication.Follower
		fol, err = replication.StartFollower(replication.FollowerConfig{
			Leader: *peers,
			Dir:    *wal,
			Logf:   log.Printf,
		})
		if err == nil {
			defer func() {
				if err := fol.Close(); err != nil {
					log.Printf("attrank-serve: closing follower: %v", err)
				}
			}()
			srv = service.NewReplica(fol, *maxLag)
		}
	case *wal != "":
		ing, err = buildLive(*in, *wal, *alpha, *beta, *gamma, *y, *w, *now, *workers, *rerankAfter, *rerankEvery, *snapshotEvery, *pushTol, *pushReconcile, impactCfg)
		if err == nil {
			defer func() {
				if err := ing.Close(); err != nil {
					log.Printf("attrank-serve: closing ingester: %v", err)
				}
			}()
			srv = service.NewLive(ing)
			if *role == "leader" {
				srv.AttachReplication(replication.NewLeader(ing, replication.LeaderConfig{Logf: log.Printf}).Handler())
				log.Printf("attrank-serve: leader mode: shipping WAL at /repl/")
			}
		}
	default:
		srv, err = build(*in, *alpha, *beta, *gamma, *y, *w, *now, *workers)
		if err == nil && *indicators {
			err = srv.EnableIndicators(impactCfg)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrank-serve:", err)
		os.Exit(1)
	}
	adm := service.AdmissionConfig{
		MaxInFlight: *maxInflight,
		MaxQueue:    *queue,
		Deadline:    *deadline,
		MaxPending:  *maxPending,
		MaxRPS:      *maxRPS,
	}
	srv.ConfigureAdmission(adm)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	handler := http.Handler(srv.Handler())
	if *pprofOn {
		handler = withPprof(handler)
		log.Printf("attrank-serve: pprof enabled at /debug/pprof/")
	}
	// The write timeout must outlast the worst admitted request: queue
	// wait plus deadline, with slack for the response itself.
	opts := service.ServeOptions{WriteTimeout: 2**deadline + 30*time.Second}
	log.Printf("attrank-serve: listening on %s", *addr)
	if err := service.ServeWith(ctx, *addr, handler, opts); err != nil {
		log.Fatal(err)
	}
	// Graceful shutdown order: the drain above already completed every
	// in-flight request; now make the corpus durable in one piece so the
	// next start recovers from a snapshot instead of a long WAL replay.
	if ing != nil {
		if err := ing.Flush(); err != nil {
			log.Printf("attrank-serve: final flush: %v", err)
		} else if err := ing.Snapshot(); err != nil {
			log.Printf("attrank-serve: final snapshot: %v", err)
		}
	}
	log.Println("attrank-serve: shut down cleanly")
}

// withPprof mounts the net/http/pprof handlers in front of the service
// handler. Profiling is opt-in (-pprof): the endpoints expose stacks and
// heap contents, which a public ranking API should not serve by default.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

func build(in string, alpha, beta, gamma float64, y int, w float64, now, workers int) (*service.Server, error) {
	net, err := dataio.LoadFile(in)
	if err != nil {
		return nil, err
	}
	if now == 0 {
		now = net.MaxYear()
	}
	if w == 0 {
		if w, err = fitW(net); err != nil {
			return nil, err
		}
	}
	return service.New(net, now, core.Params{
		Alpha: alpha, Beta: beta, Gamma: gamma, AttentionYears: y, W: w, Workers: workers,
	})
}

// buildLive opens the ingestion subsystem over the durable state in dir.
// The seed corpus (-in) is only consulted when dir holds no snapshot yet;
// on restart the snapshot plus the WAL tail are authoritative.
func buildLive(in, dir string, alpha, beta, gamma float64, y int, w float64, now, workers, rerankAfter int, rerankEvery time.Duration, snapshotEvery int, pushTol float64, pushReconcile int, impactCfg impact.Config) (*ingest.Ingester, error) {
	var seed *graph.Network
	if in != "" {
		var err error
		if seed, err = dataio.LoadFile(in); err != nil {
			return nil, err
		}
	}
	if w == 0 {
		// Fit the recency exponent from whatever corpus we will start
		// from: the existing snapshot if the directory has one, else the
		// seed. An empty corpus keeps w = 0 (uniform recency) until the
		// operator restarts with an explicit -w.
		fitNet := seed
		if snap, err := dataio.LoadBinaryFile(filepath.Join(dir, "snapshot.anb")); err == nil {
			fitNet = snap
		}
		if fitNet != nil && fitNet.N() > 0 {
			var err error
			if w, err = fitW(fitNet); err != nil {
				return nil, err
			}
		} else {
			log.Printf("attrank-serve: empty corpus, using w = 0 (uniform recency)")
		}
	}
	return ingest.Open(seed, ingest.Config{
		Dir: dir,
		Params: core.Params{
			Alpha: alpha, Beta: beta, Gamma: gamma, AttentionYears: y, W: w, Workers: workers,
		},
		Now:            now,
		RerankAfter:    rerankAfter,
		RerankEvery:    rerankEvery,
		SnapshotEvery:  snapshotEvery,
		PushTol:        pushTol,
		ReconcileEvery: pushReconcile,
		Impact:         impactCfg,
		Logf:           log.Printf,
	})
}

func fitW(net *graph.Network) (float64, error) {
	w, err := core.FitWFromNetwork(net, 10)
	if err != nil {
		return 0, fmt.Errorf("fitting w: %w", err)
	}
	log.Printf("attrank-serve: fitted w = %.4f", w)
	return w, nil
}
