package policy

import (
	"repro/internal/core"
)

// This file adds placement explainability: asked through
// PlacementRequest.Decisions, the MOOP policy reports, for every
// replica it places, the full per-objective score vector of every
// candidate it considered — not just the winning media and its
// scalarised score. The master journals and stores these decisions so
// "why is this replica on that worker/tier?" (paper §3.2–§3.3,
// Algorithms 1–2) is answerable after the fact, which the follow-up
// automation work (arXiv:1907.02394) identifies as the prerequisite
// for smarter tier management.

// MaxExplainedCandidates caps how many candidates a ReplicaDecision
// retains (winner first). Clusters have O(media) candidates per
// replica; keeping the top few loses nothing an operator acts on.
const MaxExplainedCandidates = 8

// CandidateScore records how one candidate media scored in a MOOP
// instance (Algorithm 1): where the media lives, the full
// four-objective f-vector of the trial selection (chosen ∪ candidate)
// and the Eq. 11 scalarised distance from the ideal vector that
// ranked it. It is served as JSON at /debug/explain.
type CandidateScore struct {
	Worker  core.WorkerID
	Storage core.StorageID
	Node    string
	Rack    string
	Tier    core.StorageTier

	// Score is the Eq. 11 global-criterion distance over the policy's
	// configured objective set; lower is better.
	Score float64

	// Objectives is the trial selection's f-vector in (DB, LB, FT, TM)
	// order — Eq. 9 evaluated with this candidate added.
	Objectives [4]float64

	// Chosen marks the winning candidate.
	Chosen bool
}

// ReplicaDecision explains one replica's placement: the requested
// tier entry, the ideal vector z* the trial selections were measured
// against, and the scored candidates with the winner first.
type ReplicaDecision struct {
	// Entry is the replication-vector entry being satisfied
	// (core.TierUnspecified for an "any tier" replica).
	Entry core.StorageTier

	// Ideal is the Eq. 10 ideal vector z* for the trial size, in
	// (DB, LB, FT, TM) order.
	Ideal [4]float64

	// Candidates holds the winner at index 0, then the remaining
	// candidates by ascending (better-first) score, capped at
	// MaxExplainedCandidates.
	Candidates []CandidateScore

	// Considered is the total number of feasible candidates evaluated,
	// including any beyond the retention cap.
	Considered int
}

// newCandidateScore records one candidate's evaluation.
func newCandidateScore(m Media, score float64, f [4]float64) CandidateScore {
	return CandidateScore{
		Worker:     m.Worker,
		Storage:    m.ID,
		Node:       m.Node,
		Rack:       m.Rack,
		Tier:       m.Tier,
		Score:      score,
		Objectives: f,
	}
}

// rankCandidates orders the scored candidates winner-first, then by
// ascending score (ties keep option order, mirroring the solver's
// first-wins tie-break), capped at MaxExplainedCandidates.
func rankCandidates(scored []CandidateScore, bestIdx int) []CandidateScore {
	out := make([]CandidateScore, 0, len(scored))
	out = append(out, scored[bestIdx])
	rest := make([]CandidateScore, 0, len(scored)-1)
	rest = append(rest, scored[:bestIdx]...)
	rest = append(rest, scored[bestIdx+1:]...)
	// Insertion sort keeps equal-score candidates in option order;
	// candidate lists are small (pruned media sets).
	for i := 1; i < len(rest); i++ {
		for k := i; k > 0 && rest[k].Score < rest[k-1].Score; k-- {
			rest[k], rest[k-1] = rest[k-1], rest[k]
		}
	}
	out = append(out, rest...)
	if len(out) > MaxExplainedCandidates {
		out = out[:MaxExplainedCandidates]
	}
	return out
}

// ObjectiveNames returns the display names of the four objectives in
// vector order — the column headers for explain output.
func ObjectiveNames() [4]string {
	return [4]string{
		objectiveNames[DataBalancing],
		objectiveNames[LoadBalancing],
		objectiveNames[FaultTolerance],
		objectiveNames[ThroughputMax],
	}
}
