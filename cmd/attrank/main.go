// Command attrank ranks the papers of a citation network by their
// estimated short-term impact and prints the top of the ranking.
//
// Usage:
//
//	attrank -in network.tsv [-method AR] [-top 20] [-alpha 0.2 -beta 0.5 -gamma 0.3 -y 3] [-now 2016] [-explain]
//
// Methods: AR (AttRank, default), NO-ATT, ATT-ONLY, PR, CC, CR, FR, RAM,
// ECM, WSDM, HITS, KATZ, TPR. AttRank's w is fitted from the network
// unless -w is given; -explain decomposes each top paper's score into its
// flow / attention / recency components.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"attrank/internal/baselines"
	"attrank/internal/core"
	"attrank/internal/dataio"
	"attrank/internal/graph"
	"attrank/internal/metrics"
	"attrank/internal/textplot"
)

func main() {
	var (
		in      = flag.String("in", "", "input network file (.tsv, .json or .anb, optionally .gz-compressed)")
		method  = flag.String("method", "AR", "ranking method: AR, NO-ATT, ATT-ONLY, PR, CC, CR, FR, RAM, ECM, WSDM, HITS, KATZ, TPR")
		top     = flag.Int("top", 20, "number of papers to print")
		now     = flag.Int("now", 0, "current time tN (default: newest year in the network)")
		alpha   = flag.Float64("alpha", 0.2, "AttRank α / method-specific α")
		beta    = flag.Float64("beta", 0.5, "AttRank β / method-specific β")
		gamma   = flag.Float64("gamma", 0.3, "AttRank γ / RAM-ECM γ")
		y       = flag.Int("y", 3, "AttRank attention window in years")
		w       = flag.Float64("w", 0, "AttRank recency exponent (0 = fit from data)")
		tau     = flag.Float64("tau", 2.6, "CiteRank τdir")
		rho     = flag.Float64("rho", -0.62, "FutureRank ρ")
		iters   = flag.Int("iters", 4, "WSDM iteration count")
		explain = flag.Bool("explain", false, "decompose each top paper's AttRank score (AR methods only)")
		csvOut  = flag.String("csv", "", "also write the complete ranking as CSV to this file")
		workers = flag.Int("workers", 0, "AttRank power-iteration parallelism: 0 or 1 = on the calling goroutine, N > 1 = at most N workers, negative = one per CPU core; every value gives the same result")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "attrank: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *method, *top, *now, *alpha, *beta, *gamma, *y, *w, *tau, *rho, *iters, *workers, *explain, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "attrank:", err)
		os.Exit(1)
	}
}

func run(in, method string, top, now int, alpha, beta, gamma float64, y int, w, tau, rho float64, iters, workers int, explain bool, csvOut string) error {
	net, err := dataio.LoadFile(in)
	if err != nil {
		return err
	}
	if now == 0 {
		now = net.MaxYear()
	}
	fmt.Printf("loaded %s: %s\n", in, net.ComputeStats())

	scores, arResult, arParams, err := computeScores(net, now, method, alpha, beta, gamma, y, w, tau, rho, iters, workers)
	if err != nil {
		return err
	}

	order := metrics.TopK(scores, top)
	rows := make([][]string, 0, len(order))
	for i, idx := range order {
		p := net.Paper(int32(idx))
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			p.ID,
			fmt.Sprintf("%d", p.Year),
			fmt.Sprintf("%.3e", scores[idx]),
			fmt.Sprintf("%d", net.InDegree(int32(idx))),
			fmt.Sprintf("%d", net.CitationsIn(int32(idx), now-2, now)),
		})
	}
	fmt.Print(textplot.Table(
		[]string{"#", "paper", "year", "score", "citations", "recent(3y)"},
		rows,
	))

	if explain {
		if arResult == nil {
			return fmt.Errorf("-explain requires an AttRank-family method (AR, NO-ATT, ATT-ONLY)")
		}
		fmt.Println("\nscore decomposition (flow = via references; attention = recent citations; recency = age):")
		for _, idx := range order {
			e, err := core.Explain(net, arResult, arParams, int32(idx))
			if err != nil {
				return err
			}
			fmt.Printf("  %-14s %s\n", net.Paper(int32(idx)).ID, e)
		}
	}

	if csvOut != "" {
		if err := writeRankingCSV(csvOut, net, scores, now); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d rows)\n", csvOut, net.N())
	}
	return nil
}

// writeRankingCSV dumps the complete ranking with per-paper context.
func writeRankingCSV(path string, net *graph.Network, scores []float64, now int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	werr := cw.Write([]string{"rank", "paper", "year", "score", "citations", "recent_3y"})
	for rank, idx := range metrics.Ordering(scores) {
		if werr != nil {
			break
		}
		p := net.Paper(int32(idx))
		werr = cw.Write([]string{
			strconv.Itoa(rank + 1),
			p.ID,
			strconv.Itoa(p.Year),
			strconv.FormatFloat(scores[idx], 'g', 10, 64),
			strconv.Itoa(net.InDegree(int32(idx))),
			strconv.Itoa(net.CitationsIn(int32(idx), now-2, now)),
		})
	}
	cw.Flush()
	if werr == nil {
		werr = cw.Error()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func computeScores(net *graph.Network, now int, method string, alpha, beta, gamma float64, y int, w, tau, rho float64, iters, workers int) ([]float64, *core.Result, core.Params, error) {
	plain := func(scores []float64, err error) ([]float64, *core.Result, core.Params, error) {
		return scores, nil, core.Params{}, err
	}
	switch method {
	case "AR", "NO-ATT", "ATT-ONLY":
		if w == 0 {
			fitted, err := core.FitWFromNetwork(net, 10)
			if err != nil {
				return nil, nil, core.Params{}, fmt.Errorf("fitting w: %w", err)
			}
			w = fitted
			fmt.Printf("fitted w = %.4f\n", w)
		}
		p := core.Params{Alpha: alpha, Beta: beta, Gamma: gamma, AttentionYears: y, W: w, Workers: workers}
		switch method {
		case "NO-ATT":
			p = p.NoAtt()
		case "ATT-ONLY":
			p = p.AttOnly()
		}
		res, err := core.Rank(net, now, p)
		if err != nil {
			return nil, nil, core.Params{}, err
		}
		fmt.Printf("%s converged in %d iterations\n", method, res.Iterations)
		fmt.Println(core.TelemetryLine())
		return res.Scores, res, p, nil
	case "PR":
		return plain(baselines.PageRank{Alpha: alpha}.Scores(net, now))
	case "CC":
		return plain(baselines.CitationCount{}.Scores(net, now))
	case "CR":
		return plain(baselines.CiteRank{Alpha: alpha, TauDir: tau}.Scores(net, now))
	case "FR":
		return plain(baselines.FutureRank{Alpha: alpha, Beta: beta, Gamma: gamma, Rho: rho}.Scores(net, now))
	case "RAM":
		return plain(baselines.RAM{Gamma: gamma}.Scores(net, now))
	case "ECM":
		return plain(baselines.ECM{Alpha: alpha, Gamma: gamma}.Scores(net, now))
	case "WSDM":
		return plain(baselines.WSDM{Alpha: alpha, Beta: beta, Iters: iters}.Scores(net, now))
	case "HITS":
		return plain(baselines.HITS{}.Scores(net, now))
	case "KATZ":
		return plain(baselines.Katz{Alpha: alpha}.Scores(net, now))
	case "TPR":
		return plain(baselines.TimeAwarePageRank{Alpha: alpha, Tau: tau}.Scores(net, now))
	default:
		return nil, nil, core.Params{}, fmt.Errorf("unknown method %q", method)
	}
}
