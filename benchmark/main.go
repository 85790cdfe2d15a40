// Command benchmark is the end-to-end benchmark of the replicated AttRank
// ranking service. It runs one workload per process and prints every
// metric by name with its unit, then, as the last line of its standard
// output, one JSON object:
//
//	{"correct": true, "attempted": 14400, "failed": 0, "metrics": {"p50_ms": {"value": 2.7, "unit": "ms"}, ...}}
//
// Server workloads (reads, write_full, write_push) run the production
// deployment in this process over loopback — a leader (ingest + service +
// WAL shipping) and one follower (replication + replica service) — and
// drive it with seeded HTTP traffic. The sweep workload runs
// the paper's Table-3 parameter grid through eval.SweepAttRank. See
// README.md for the workloads, the metrics and how to read a traced run.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	benchmark -workload reads|write_full|write_push|sweep [-seed 1] [-seconds 20] [-trace 0|1] [-trace-out FILE]
//
// -trace 1 reports per-layer metrics instead of end-to-end ones and
// writes the run's spans to -trace-out. The process exits non-zero when a
// correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured load phase
	trace    bool
	traceOut string
	workdir  string // where state directories and span files go
	papers   int    // corpus size
	setups   int    // set-ups timed; the median is reported
}

// defaultSeed is the workload seed a claim is first measured with; a
// claim must also hold on a second seed.
const defaultSeed = 1

var workloads = []string{"reads", "write_full", "write_push", "sweep"}

func main() {
	cfg := config{papers: benchPapers, setups: 3}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: reads, write_full, write_push or sweep")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the arrival schedule, the read mix and the writes (the corpus is fixed)")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured load phase, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: trace the run and report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run state and span files")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if len(out.gates) > 0 {
		os.Exit(1)
	}
}

// run executes one workload and, when tracing, writes its span file.
func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var out *outcome
	switch cfg.workload {
	case "reads", "write_full", "write_push":
		out, err = runServer(cfg, dir, tr)
	case "sweep":
		out, err = runSweep(cfg, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// Each workload has one unit of work — a read (reads), a write until the
// follower serves it (write_full, write_push), one full grid sweep
// (sweep) — and p50_ms is over that unit. A server run also prints the
// unit's p90 and how many samples lie beyond it, but no tail percentile is
// among these metrics: between sets of ten runs the p90 of writes moved by
// up to 0.30 of its median (interquartile range) — the ~20 writes beyond
// it waited on the same handful of full epochs — and that of the
// closed-loop reads by up to 0.26, past the 25% a change may cost.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"load.send_lag_p90_ms", "ms"},
	{"load.read_p50_ms", "ms"},
	{"load.write_ack_p50_ms", "ms"},
	{"service.top_ms", "ms"},
	{"service.paper_ms", "ms"},
	{"service.impact_ms", "ms"},
	{"service.batch_ms", "ms"},
	{"service.wire_ms", "ms"},
	{"service.shed", "count"},
	{"metrics.topk_ms", "ms"},
	{"ingest.wal_append_ms", "ms"},
	{"ingest.epoch_full_ms", "ms"},
	{"ingest.epoch_push_ms", "ms"},
	{"ingest.push_share", "ratio"},
	{"ingest.writes_per_epoch", "count"},
	{"ingest.replay_coverage", "ratio"},
	{"graph.compact_ms", "ms"},
	{"graph.stats_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.compile_stochastic_ms", "ms"},
	{"core.compile_relabel_ms", "ms"},
	{"core.compile_tiles_ms", "ms"},
	{"core.rank_warm_ms", "ms"},
	{"core.rank_iterations", "count"},
	{"core.tracker_update_ms", "ms"},
	{"impact.compute_ms", "ms"},
	{"core.push_seed_ms", "ms"},
	{"core.push_settle_ms", "ms"},
	{"core.pushes", "count"},
	{"metrics.ordering_ms", "ms"},
	{"replication.apply_full_ms", "ms"},
	{"replication.apply_push_ms", "ms"},
	{"replication.bootstrap_ms", "ms"},
	{"core.rank_batch_ms", "ms"},
	{"metrics.spearman_ms", "ms"},
	{"sparse.step_ms", "ms"},
	{"sparse.step_par_ms", "ms"},
	{"sparse.bytes_per_nnz", "B/nnz"},
	{"bench.trace_overhead_pct", "%"},
}

// outcome is the result of one run.
type outcome struct {
	attempted, failed int
	gates             []string // failed correctness gates
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// gate records a failed correctness check.
func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one line per metric, then the failed gates, then the JSON
// result line.
func (o *outcome) print(w io.Writer, cfg config) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := jsonResult{Correct: len(o.gates) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v := o.values[d.name]
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %s %.6g %s\n", cfg.workload, d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d\n", cfg.workload, o.attempted, o.failed)
	for _, g := range o.gates {
		fmt.Fprintf(w, "%s GATE FAILED: %s\n", cfg.workload, g)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
