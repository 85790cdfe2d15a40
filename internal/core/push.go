package core

import (
	"errors"
	"fmt"
	"math"

	"attrank/internal/graph"
	"attrank/internal/sparse"
)

// This file is the incremental-ranking updater (DESIGN.md §14): AttRank
// semantics on top of the sparse Gauss–Southwell push kernel. Starting
// from a converged score vector x* of
//
//	x = α·S·x + β·a + γ·t            (Eq. 4)
//
// each accepted citation perturbs S (it renormalizes the citing paper's
// column) and, when the citing paper is in the attention window, a (it
// shifts attention mass). New papers are never pushed: a batch holding
// one takes the full path. The Pusher expresses every sparse part of
// those perturbations as residual seeds and settles them locally; every
// dense-but-tiny part (renormalizations, dangling uniform columns) goes
// to the kernel's L1 ledger so Bound() stays an honest bound on
// ‖x − x*‖₁. When a batch is too global — budgets blow, the attention
// window was empty — the updater refuses with ErrNeedFull and the
// caller reconciles with the full power method.
//
// Everything here is deterministic and serial: two Pushers fed the same
// event sequence produce bit-identical scores, which is what lets a
// replication follower replay push-mode epochs (internal/replication).

// ErrNeedFull signals that the incremental updater cannot (or should
// not) absorb a mutation or settle within budget; the caller must fall
// back to a full re-rank and rebuild the pusher from its result.
var ErrNeedFull = errors.New("core: incremental update needs a full re-rank")

// Default incremental-ranking budgets (see PushConfig). The settle
// tolerance sits three orders of magnitude under the staleness budget:
// each push epoch contributes ≲ Tol/(1−α) to the accumulated bound, so
// the default pair allows push streaks hundreds of epochs long before
// MaxResidual forces a reconciliation.
const (
	DefaultPushTol         = 1e-6
	DefaultPushMaxResidual = 1e-3
	DefaultPushMaxTouched  = 0.25
	DefaultPushMaxPushes   = 1 << 20
)

// PushConfig bounds the incremental updater. The zero value of any field
// selects its default; a negative value means unlimited (used by the
// replication follower, which replays the leader's already-made
// decisions and must never diverge on a budget check).
type PushConfig struct {
	// Tol is the residual L1 the kernel settles each batch down to.
	Tol float64
	// MaxResidual is the staleness budget: once the total error bound
	// (settled residual + ledger, over 1−α) exceeds it, Settle returns
	// ErrNeedFull. The ledger only resets at reconciliation, so this also
	// caps how long a push streak can run.
	MaxResidual float64
	// MaxTouchedFrac caps the touched-node fraction; a batch whose
	// influence region stops being local is cheaper to rank in full.
	MaxTouchedFrac float64
	// MaxPushes caps pushes per Settle, the hard stop against
	// pathological propagation.
	MaxPushes int
}

func (c PushConfig) norm() PushConfig {
	if c.Tol == 0 {
		c.Tol = DefaultPushTol
	}
	switch {
	case c.MaxResidual == 0:
		c.MaxResidual = DefaultPushMaxResidual
	case c.MaxResidual < 0:
		c.MaxResidual = math.Inf(1)
	}
	switch {
	case c.MaxTouchedFrac == 0:
		c.MaxTouchedFrac = DefaultPushMaxTouched
	case c.MaxTouchedFrac < 0:
		c.MaxTouchedFrac = math.Inf(1)
	}
	if c.MaxPushes == 0 {
		c.MaxPushes = DefaultPushMaxPushes
	}
	return c
}

// ReplayPushConfig is the follower-side configuration: same settle
// tolerance as the leader, no budget checks (the leader only ships a
// push marker for batches that passed its budgets).
func ReplayPushConfig(tol float64) PushConfig {
	return PushConfig{Tol: tol, MaxResidual: -1, MaxTouchedFrac: -1, MaxPushes: -1}
}

// PushStats reports one Settle.
type PushStats struct {
	// Pushes is the push count of this settle; TotalPushes since seeding.
	Pushes      int
	TotalPushes int64
	// Touched is the distinct-node influence region since seeding.
	Touched int
	// SumAbs and Ledger decompose the residual; Bound is the resulting
	// ‖x − x*‖₁ bound (SumAbs+Ledger)/(1−α).
	SumAbs, Ledger, Bound float64
}

// Pusher applies AttRank-semantic mutations incrementally. It is owned
// by one goroutine (the ingest scheduler / the replication follower).
type Pusher struct {
	ov  *graph.Overlay
	eng *sparse.Pusher
	p   Params
	cfg PushConfig

	now  int
	from int // attention window start, now−y+1

	attTotal float64 // citations made by window papers (T of Eq. 2)

	applied int
}

// NewPusher seeds an incremental updater over net at ranking time now
// from a converged score vector (normally the last full epoch's). The
// pusher works in the network's own node-index space — the tiled
// kernel's cache relabeling lives behind the operator's permutation
// boundary and never leaks here, so the two compose freely.
func NewPusher(net *graph.Network, now int, p Params, cfg PushConfig, scores []float64) (*Pusher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if net.N() == 0 {
		return nil, ErrEmptyNetwork
	}
	if len(scores) != net.N() {
		return nil, fmt.Errorf("core: push seed: %d scores for %d papers", len(scores), net.N())
	}
	if now < net.MaxYear() {
		return nil, fmt.Errorf("core: push seed at time %d before corpus max year %d", now, net.MaxYear())
	}
	ov := graph.NewOverlay(net)
	eng, err := sparse.NewPusher(ov, p.Alpha, scores)
	if err != nil {
		return nil, err
	}
	pu := &Pusher{ov: ov, eng: eng, p: p, cfg: cfg.norm(), now: now, from: now - p.AttentionYears + 1}
	if p.Beta > 0 && p.AttentionYears > 0 {
		// T = total citations made by papers published in the window —
		// identical to AttentionVector's normalizer, counted from the
		// out-edge side in one deterministic pass.
		for j := int32(0); int(j) < net.N(); j++ {
			if y := net.Year(j); y >= pu.from && y <= now {
				pu.attTotal += float64(net.OutDegree(j))
			}
		}
	}
	return pu, nil
}

// Base returns the immutable network the pusher was seeded over.
func (pu *Pusher) Base() *graph.Network { return pu.ov.Base() }

// Now returns the ranking time the pusher is pinned to.
func (pu *Pusher) Now() int { return pu.now }

// Applied returns how many mutations have been absorbed since seeding.
func (pu *Pusher) Applied() int { return pu.applied }

// Bound returns the current ‖x − x*‖₁ bound.
func (pu *Pusher) Bound() float64 { return pu.eng.Bound() }

// Scores returns the live approximate score vector (aliases internal
// state; copy anything that outlives the next mutation).
func (pu *Pusher) Scores() []float64 { return pu.eng.Scores() }

// CopyScores snapshots the current approximate scores.
func (pu *Pusher) CopyScores() []float64 { return pu.eng.CopyScores() }

// AddCitation absorbs one citation edge citing→cited (node indices of
// the base network). The perturbation has two parts: the α·S column
// renormalization of the citing paper, and — when the citing paper
// publishes inside the attention window — the β·a attention shift.
// Errors (self-citation, duplicate, out of range) leave the state
// unchanged except for already-applied seeds of earlier calls.
func (pu *Pusher) AddCitation(citing, cited int32) error {
	if citing == cited {
		return fmt.Errorf("core: push self-citation at node %d", citing)
	}
	n := int32(pu.ov.N())
	if citing < 0 || citing >= n || cited < 0 || cited >= n {
		return fmt.Errorf("core: push edge %d→%d out of range [0,%d)", citing, cited, n)
	}
	if pu.ov.HasEdge(citing, cited) {
		return fmt.Errorf("core: push duplicate edge %d→%d", citing, cited)
	}
	alpha := pu.p.Alpha
	if alpha > 0 {
		xj := pu.eng.X(citing)
		k := pu.ov.OutDegree(citing)
		// Seeds use the approximate x[citing] where the invariant calls
		// for the exact one; the gap is second-order — bounded by
		// α·‖ΔS_col‖₁·|x*−x| — and goes to the ledger. Computed before
		// the seeds so the order is deterministic.
		relNorm := 2.0
		if k > 0 {
			relNorm = 2.0 / float64(k+1)
		}
		pu.eng.AddLedger(alpha * relNorm * pu.eng.Bound())
		if xj != 0 {
			if k == 0 {
				// The citing column flips from the uniform dangling
				// distribution u to e_cited: sparse +α·x_j at cited,
				// dense −α·x_j·u to the ledger.
				pu.eng.AddResidual(cited, alpha*xj)
				pu.eng.AddLedger(alpha * xj)
			} else {
				d := alpha * xj * (1/float64(k+1) - 1/float64(k))
				pu.ov.References(citing, func(ref int32) {
					pu.eng.AddResidual(ref, d)
				})
				pu.eng.AddResidual(cited, alpha*xj/float64(k+1))
			}
		}
	}
	if pu.p.Beta > 0 && pu.p.AttentionYears > 0 {
		if y := pu.ov.Year(citing); y >= pu.from && y <= pu.now {
			if pu.attTotal == 0 {
				// An empty window made a uniform (AttentionVector's
				// stochasticity fallback); one citation snaps it to
				// e_cited — a dense swap, mostly ledger. This is rare
				// and large: the budget check will force a full rank.
				pu.eng.AddResidual(cited, pu.p.Beta)
				pu.eng.AddLedger(pu.p.Beta)
				pu.attTotal = 1
			} else {
				pu.attTotal++
				// a rescales by T/(T+1) (ledger) and gains 1/(T+1) at
				// cited (exact sparse seed).
				pu.eng.AddResidual(cited, pu.p.Beta/pu.attTotal)
				pu.eng.AddLedger(pu.p.Beta / pu.attTotal)
			}
		}
	}
	if err := pu.ov.AddEdge(citing, cited); err != nil {
		return err
	}
	pu.applied++
	return nil
}

// Settle drains the seeded residual down to cfg.Tol and checks the
// budgets. On ErrNeedFull the scores are not within tolerance and the
// caller must reconcile with a full rank (discarding this pusher); any
// other state remains usable.
func (pu *Pusher) Settle() (PushStats, error) {
	pushes, err := pu.eng.Settle(pu.cfg.Tol, pu.cfg.MaxPushes)
	st := PushStats{
		Pushes:      pushes,
		TotalPushes: pu.eng.Pushes(),
		Touched:     pu.eng.Touched(),
		SumAbs:      pu.eng.SumAbs(),
		Ledger:      pu.eng.Ledger(),
		Bound:       pu.eng.Bound(),
	}
	if err != nil {
		return st, fmt.Errorf("%v: %w", err, ErrNeedFull)
	}
	if st.Bound > pu.cfg.MaxResidual {
		return st, fmt.Errorf("core: push residual bound %.3g exceeds budget %.3g: %w", st.Bound, pu.cfg.MaxResidual, ErrNeedFull)
	}
	if frac := float64(st.Touched) / float64(pu.ov.N()); frac > pu.cfg.MaxTouchedFrac {
		return st, fmt.Errorf("core: push touched %.0f%% of the corpus (budget %.0f%%): %w",
			100*frac, 100*pu.cfg.MaxTouchedFrac, ErrNeedFull)
	}
	return st, nil
}
