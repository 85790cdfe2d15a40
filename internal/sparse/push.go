package sparse

import (
	"errors"
	"fmt"
	"math"
)

// This file is the numeric half of the incremental-ranking path (DESIGN.md
// §14): a Gauss–Southwell residual-push kernel for linear systems of the
// AttRank form
//
//	x = α·S·x + b
//
// where S is the column-stochastic citation matrix. The kernel maintains
// an approximate solution x together with an explicit sparse residual r
// such that the exact solution is x* = x + (I − αS)⁻¹ r: "pushing" node v
// moves its residual mass m = r[v] into x[v] and spreads α·m/k along v's
// out-edges, preserving the invariant exactly. Residual mass below the
// per-entry threshold is left in place, which is what makes a single
// citation write cost its neighborhood instead of the graph.
//
// Perturbations that are dense but tiny — a dangling column's uniform
// 1/n spread, the renormalization part of an attention or recency update
// — are not represented entry-wise. Their L1 mass is accumulated in a
// scalar ledger instead, so the error bound stays honest:
//
//	‖x − x*‖₁ ≤ (SumAbs + Ledger) / (1 − α)
//
// because ‖(I − αS)⁻¹‖₁ ≤ 1/(1−α) for column-substochastic αS. The
// ledger only shrinks when the caller reconciles against a full rank and
// rebuilds the pusher.

// PushGraph is the out-adjacency view the push kernel walks: the
// column structure of S, i.e. node v's reference list. graph.Overlay
// implements it over a compiled base network plus uncompacted fringe
// edges; any static CSR view works too.
type PushGraph interface {
	// N is the node count; x and r have one entry per node.
	N() int
	// OutDegree returns the reference count k_v of node v (0 = dangling).
	OutDegree(v int32) int
	// References calls fn for every node v cites, in a deterministic
	// order (the replication follower replays pushes bit-for-bit, so the
	// float accumulation order must be reproducible).
	References(v int32, fn func(ref int32))
}

// ErrPushBudget reports that Settle hit its push cap before draining the
// residual — the caller should fall back to the full power method.
var ErrPushBudget = errors.New("sparse: push budget exhausted")

// Pusher holds the mutable push state. It is not safe for concurrent
// use; the whole point of the serial discipline (FIFO queue, fixed
// accumulation order) is that two pushers fed the same event sequence
// produce bit-identical vectors.
type Pusher struct {
	g     PushGraph
	alpha float64

	x, r    []float64
	inQ     []bool
	touched []bool

	queue []int32 // FIFO of nodes whose residual may exceed the threshold
	head  int

	sumAbs   float64 // exact Σ|r[i]| over the tracked sparse residual
	ledger   float64 // L1 bound on dense residual mass not tracked entry-wise
	touchedN int
	pushes   int64
}

// NewPusher starts a push state at the solved point x = scores, r = 0.
// The scores are copied; alpha must lie in [0, 1).
func NewPusher(g PushGraph, alpha float64, scores []float64) (*Pusher, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("sparse: push needs 0 ≤ α < 1, got %v", alpha)
	}
	if g.N() != len(scores) {
		return nil, fmt.Errorf("sparse: push seed of %d scores for %d nodes", len(scores), g.N())
	}
	n := len(scores)
	p := &Pusher{
		g:       g,
		alpha:   alpha,
		x:       append([]float64(nil), scores...),
		r:       make([]float64, n),
		inQ:     make([]bool, n),
		touched: make([]bool, n),
	}
	return p, nil
}

// X returns the current approximate score of node i.
func (p *Pusher) X(i int32) float64 { return p.x[i] }

// Scores returns the live score vector. It aliases internal state: the
// caller must copy (CopyScores) anything that outlives the next event.
func (p *Pusher) Scores() []float64 { return p.x }

// CopyScores returns a snapshot of the current approximate solution.
func (p *Pusher) CopyScores() []float64 { return append([]float64(nil), p.x...) }

// SumAbs returns the exact L1 mass of the tracked sparse residual.
func (p *Pusher) SumAbs() float64 { return p.sumAbs }

// Ledger returns the accumulated L1 bound of untracked dense residual.
func (p *Pusher) Ledger() float64 { return p.ledger }

// Pushes returns the total pushes performed since construction.
func (p *Pusher) Pushes() int64 { return p.pushes }

// Touched returns how many distinct nodes have had x or r perturbed
// since construction — the locality measure the fallback policy gates on.
func (p *Pusher) Touched() int { return p.touchedN }

// Bound returns the L1 error bound ‖x − x*‖₁ ≤ (SumAbs+Ledger)/(1−α).
func (p *Pusher) Bound() float64 {
	if p.alpha >= 1 {
		return math.Inf(1)
	}
	return (p.sumAbs + p.ledger) / (1 - p.alpha)
}

func (p *Pusher) touch(i int32) {
	if !p.touched[i] {
		p.touched[i] = true
		p.touchedN++
	}
}

// AddResidual adds v to r[i] — the seeding primitive the AttRank layer
// uses to express a mutation's perturbation of α·S·x + b.
func (p *Pusher) AddResidual(i int32, v float64) {
	if v == 0 {
		return
	}
	old := p.r[i]
	now := old + v
	p.r[i] = now
	p.sumAbs += math.Abs(now) - math.Abs(old)
	p.touch(i)
	if !p.inQ[i] && now != 0 {
		p.inQ[i] = true
		p.queue = append(p.queue, i)
	}
}

// AddLedger adds non-negative L1 mass to the untracked-residual ledger.
func (p *Pusher) AddLedger(v float64) {
	if v > 0 {
		p.ledger += v
	}
}

// Settle pushes until the tracked residual L1 drops to tol or the queue
// drains (whichever first), in FIFO order. Entries below the per-node
// threshold tol/(2n) are skipped — with the queue empty every remaining
// |r[i]| is below it, so SumAbs ≤ tol/2. Each push removes at least
// (1−α)·tol/(2n) of residual mass, so the push count is bounded by
// 2n·SumAbs₀/((1−α)·tol); maxPushes (>0) cuts that off early with
// ErrPushBudget, the fallback-to-full signal. Returns the pushes done.
func (p *Pusher) Settle(tol float64, maxPushes int) (int, error) {
	if tol <= 0 {
		return 0, fmt.Errorf("sparse: push tolerance must be positive, got %v", tol)
	}
	n := len(p.x)
	if n == 0 {
		return 0, nil
	}
	thresh := tol / (2 * float64(n))
	done := 0
	for p.sumAbs > tol && p.head < len(p.queue) {
		v := p.queue[p.head]
		p.head++
		p.inQ[v] = false
		m := p.r[v]
		if math.Abs(m) < thresh {
			continue
		}
		if maxPushes > 0 && done >= maxPushes {
			// Re-enqueue v so the invariant (above-threshold ⇒ queued)
			// survives an aborted settle.
			p.inQ[v] = true
			p.queue = append(p.queue, v)
			p.compact()
			return done, ErrPushBudget
		}
		p.r[v] = 0
		p.sumAbs -= math.Abs(m)
		p.x[v] += m
		p.touch(v)
		done++
		p.pushes++
		if p.alpha != 0 {
			if k := p.g.OutDegree(v); k == 0 {
				// Dangling column: the spread α·m·u is dense and tiny —
				// bound it in the ledger instead of touching every node.
				p.ledger += p.alpha * math.Abs(m)
			} else {
				w := p.alpha * m / float64(k)
				p.g.References(v, func(j int32) {
					old := p.r[j]
					now := old + w
					p.r[j] = now
					p.sumAbs += math.Abs(now) - math.Abs(old)
					p.touch(j)
					if !p.inQ[j] && now != 0 {
						p.inQ[j] = true
						p.queue = append(p.queue, j)
					}
				})
			}
		}
	}
	p.compact()
	return done, nil
}

// compact drops the consumed queue prefix so the slice does not grow
// without bound across settles.
func (p *Pusher) compact() {
	if p.head == 0 {
		return
	}
	p.queue = p.queue[:copy(p.queue, p.queue[p.head:])]
	p.head = 0
}
