package service

import (
	"log"
	"net/http"

	"attrank/internal/replication"
)

// Replica is what a follower-mode server needs from the replication
// layer: the locally published epoch view, the replication status for
// lag gating and /v1/epoch, and the ranking parameters adopted from the
// leader. *replication.Follower implements it.
type Replica interface {
	source
	Info() replication.Info
}

// replicaState marks a Server as follower-mode.
type replicaState struct {
	src Replica
	// maxLag is the staleness ceiling: a replica more than this many
	// epochs behind the leader sheds reads (503 stale_replica) until it
	// catches up.
	maxLag uint64
}

// DefaultMaxLag is the default staleness ceiling for replica reads.
const DefaultMaxLag = 8

// NewReplica returns a follower-mode Server: every read endpoint serves
// the replica's locally published epoch views, writes and /v1/refresh
// answer 503 pointing at the leader, and reads shed with 503 +
// Retry-After once the replica falls more than maxLag epochs behind
// (maxLag <= 0 selects DefaultMaxLag).
func NewReplica(src Replica, maxLag int) *Server {
	if maxLag <= 0 {
		maxLag = DefaultMaxLag
	}
	return &Server{
		src:  src,
		logf: log.Printf,
		repl: &replicaState{src: src, maxLag: uint64(maxLag)},
	}
}

// AttachReplication mounts the replication wire endpoints (a
// replication.Leader's Handler) under /repl/. Those endpoints bypass
// admission control: shedding the shipping path during overload would
// grow follower lag exactly when the followers are needed most.
func (s *Server) AttachReplication(h http.Handler) { s.replHandler = h }

// replicaEpochBody extends /v1/epoch with the replication status.
type replicaEpochBody struct {
	Epoch       uint64           `json:"epoch"`
	Live        bool             `json:"live"`
	Role        string           `json:"role"`
	Papers      int              `json:"papers"`
	Citations   int              `json:"citations"`
	ImpactEpoch uint64           `json:"impact_epoch,omitempty"`
	Replication replication.Info `json:"replication"`
}

// handleReplicaEpoch is the follower branch of /v1/epoch.
func (s *Server) handleReplicaEpoch(w http.ResponseWriter) {
	body := replicaEpochBody{Role: "follower", Replication: s.repl.src.Info()}
	if v := s.view(); v != nil {
		body.Epoch = v.Epoch
		body.Papers = v.Stats.Papers
		body.Citations = v.Stats.Edges
		body.ImpactEpoch = v.ImpactEpoch
	}
	s.writeJSON(w, http.StatusOK, body)
}

// replicaReady reports whether the replica may serve reads: a view must
// exist and the epoch lag must be within the ceiling. The reason string
// is non-empty exactly when not ready.
func (s *Server) replicaReady() (replication.Info, string) {
	info := s.repl.src.Info()
	if s.view() == nil {
		return info, "no ranking replicated yet"
	}
	if info.EpochLag > s.repl.maxLag {
		return info, "replica stale"
	}
	return info, ""
}
