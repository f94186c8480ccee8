package policy

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/topology"
)

// PlacementRequest carries everything a placement policy needs to
// select storage media for the replicas of one block.
type PlacementRequest struct {
	// Snapshot is the cluster state the decision is made against.
	Snapshot *Snapshot

	// Client is the writer's network location. Client.Node is empty
	// when the writer runs off-cluster.
	Client topology.Location

	// RepVector lists the replicas still to be placed: pinned-tier
	// entries plus unspecified entries (paper §2.3). For initial block
	// allocation this is the file's replication vector; for
	// re-replication it holds only the missing replicas.
	RepVector core.ReplicationVector

	// BlockSize is the number of bytes each selected media must be
	// able to hold (the feasibility constraint of §3.2).
	BlockSize int64

	// Existing lists media already hosting replicas of the block.
	// Empty for initial placement; populated for re-replication
	// (paper §5), where new replicas are chosen taking the surviving
	// ones into account.
	Existing []Media

	// Rand provides the randomness used for tie-breaking and random
	// node selection. A nil Rand makes the policy fully deterministic.
	Rand *rand.Rand

	// Decisions, when non-nil, receives one ReplicaDecision per placed
	// replica, in pipeline order. Asking for them changes neither the
	// winners nor the errors. The MOOP policies fill it; the HDFS and
	// rule-based baselines explain nothing and leave it untouched.
	Decisions *[]ReplicaDecision
}

// PlacementPolicy selects the storage media that will host a block's
// replicas (paper §3.3: "pluggable block placement policy").
type PlacementPolicy interface {
	// Name identifies the policy in reports and benchmarks.
	Name() string

	// PlaceReplicas returns one media per requested replica, in
	// pipeline order. It returns the media it could place even when
	// fewer than requested fit (alongside ErrNoSpace) so callers can
	// proceed with degraded replication like HDFS does.
	PlaceReplicas(req PlacementRequest) ([]Media, error)
}

// MOOPConfig tunes the MOOP placement policy. The zero value is not
// usable; call DefaultMOOPConfig.
type MOOPConfig struct {
	// Objectives is the objective set optimised by the policy. The
	// full MOOP uses all four; the paper's single-objective evaluation
	// policies use exactly one.
	Objectives []Objective

	// Norm selects the Eq. 11 scalarisation norm (default Euclidean).
	Norm Norm

	// UseMemory permits placing *unspecified* replicas on the
	// volatile memory tier. Disabled by default (paper §3.3); replicas
	// explicitly pinned to memory by the replication vector are always
	// honoured.
	UseMemory bool

	// MaxMemoryFraction caps the fraction of a block's replicas the
	// policy may put in memory (paper §3.3: "it will not place more
	// than 1/3 of the replicas in memory").
	MaxMemoryFraction float64

	// RackPruning enables the two-rack search-space heuristic of
	// §3.3: after the first replica, prune the first replica's rack;
	// after the second, restrict to the two racks already used.
	RackPruning bool

	// ClientLocal makes the policy consider only the writer's own
	// media for the first replica when the writer is collocated with a
	// worker (§3.3: "it is best to consider storing the first replica
	// on that Worker").
	ClientLocal bool
}

// DefaultMOOPConfig returns the paper-default configuration: all four
// objectives, Euclidean norm, memory disabled for unspecified
// replicas, 1/3 memory cap, rack pruning and client collocation on.
func DefaultMOOPConfig() MOOPConfig {
	return MOOPConfig{
		Objectives:        AllObjectives(),
		Norm:              NormL2,
		UseMemory:         false,
		MaxMemoryFraction: 1.0 / 3.0,
		RackPruning:       true,
		ClientLocal:       true,
	}
}

// MOOPPolicy is the default OctopusFS block placement policy (paper
// §3.3). It greedily solves the multi-objective optimization problem
// of Eq. 11 one replica at a time.
type MOOPPolicy struct {
	cfg  MOOPConfig
	name string
}

// NewMOOPPolicy builds a MOOP policy with the given configuration.
func NewMOOPPolicy(cfg MOOPConfig) *MOOPPolicy {
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = AllObjectives()
	}
	if cfg.MaxMemoryFraction <= 0 {
		cfg.MaxMemoryFraction = 1.0 / 3.0
	}
	name := "MOOP"
	if len(cfg.Objectives) == 1 {
		name = cfg.Objectives[0].String()
	}
	return &MOOPPolicy{cfg: cfg, name: name}
}

// NewSingleObjectivePolicy builds one of the paper's §7.2 evaluation
// policies that optimises a single objective (DB, LB, FT, or TM).
// Memory use is enabled, mirroring the paper's note that memory was
// enabled for fairness in those experiments.
func NewSingleObjectivePolicy(o Objective) *MOOPPolicy {
	cfg := DefaultMOOPConfig()
	cfg.Objectives = []Objective{o}
	cfg.UseMemory = true
	return NewMOOPPolicy(cfg)
}

// Name implements PlacementPolicy.
func (p *MOOPPolicy) Name() string { return p.name }

// PlaceReplicas implements Algorithm 2: it iterates over the
// replication-vector entries, generating the pruned option list for
// each entry and solving the MOOP instance (Algorithm 1) to pick the
// best media, accumulating choices as it goes.
func (p *MOOPPolicy) PlaceReplicas(req PlacementRequest) ([]Media, error) {
	if req.Snapshot == nil || len(req.Snapshot.Media) == 0 {
		return nil, core.ErrNoWorkers
	}
	entries := req.RepVector.PinnedTiers()
	if len(entries) == 0 {
		return nil, fmt.Errorf("policy: empty replication vector: %w", core.ErrNoSpace)
	}
	ctx := newEvalContext(req.Snapshot, req.BlockSize)

	// chosen accumulates existing replicas plus this call's picks so
	// every SolveMoop instance sees the full prospective replica set;
	// placed collects only the new picks we return.
	chosen := make([]Media, 0, len(req.Existing)+len(entries))
	chosen = append(chosen, req.Existing...)
	placed := make([]Media, 0, len(entries))

	memoryBudget := p.memoryBudget(req)
	for _, m := range chosen {
		if m.Tier == core.TierMemory {
			memoryBudget--
		}
	}

	for _, entry := range entries {
		options := p.genOptions(req, chosen, entry, len(placed), &memoryBudget)
		var dec *ReplicaDecision
		if req.Decisions != nil {
			dec = &ReplicaDecision{Entry: entry}
		}
		best, ok := solveMOOP(ctx, options, chosen, p.cfg.Objectives, p.cfg.Norm, dec)
		if !ok {
			if len(placed) == 0 {
				return nil, fmt.Errorf("policy: no feasible media for %s entry of %s: %w",
					entry, req.RepVector, core.ErrNoSpace)
			}
			return placed, fmt.Errorf("policy: placed %d of %d replicas: %w",
				len(placed), len(entries), core.ErrNoSpace)
		}
		if dec != nil {
			*req.Decisions = append(*req.Decisions, *dec)
		}
		if best.Tier == core.TierMemory {
			memoryBudget--
		}
		chosen = append(chosen, best)
		placed = append(placed, best)
	}
	return placed, nil
}

// memoryBudget computes how many of the request's replicas may sit on
// the memory tier: every explicitly pinned memory replica, plus up to
// MaxMemoryFraction of the total for unspecified entries when
// UseMemory is enabled.
func (p *MOOPPolicy) memoryBudget(req PlacementRequest) int {
	total := req.RepVector.Total() + len(req.Existing)
	pinned := req.RepVector.Memory()
	if !p.cfg.UseMemory {
		return pinned
	}
	frac := int(p.cfg.MaxMemoryFraction * float64(total))
	if frac < pinned {
		frac = pinned
	}
	return frac
}

// genOptions implements the GenOptions step of Algorithm 2: it filters
// the cluster's media down to the feasible, heuristically pruned
// candidate set for the next replica.
func (p *MOOPPolicy) genOptions(req PlacementRequest, chosen []Media,
	entry core.StorageTier, placedSoFar int, memoryBudget *int) []Media {

	s := req.Snapshot
	usedRacks := make(map[string]struct{}, len(chosen))
	usedIDs := make(map[core.StorageID]struct{}, len(chosen))
	var firstRack string
	for i, m := range chosen {
		usedIDs[m.ID] = struct{}{}
		usedRacks[m.Rack] = struct{}{}
		if i == 0 {
			firstRack = m.Rack
		}
	}

	keep := func(m Media) bool {
		if _, dup := usedIDs[m.ID]; dup {
			return false // constraint: media are unique per block
		}
		if m.Remaining-req.BlockSize < 0 {
			return false // constraint: Rem − blockSize ≥ 0
		}
		if entry != core.TierUnspecified && m.Tier != entry {
			return false // tier pinned by the replication vector
		}
		if entry == core.TierUnspecified && m.Tier == core.TierMemory && *memoryBudget <= 0 {
			return false // volatile-tier cap (§3.3)
		}
		if p.cfg.RackPruning && s.NumRacks > 1 {
			switch len(usedRacks) {
			case 1:
				// One rack used so far: force the next replica off it
				// (unless it holds the only feasible media — handled
				// by the fallback below).
				if m.Rack == firstRack {
					return false
				}
			default:
				if len(usedRacks) >= 2 {
					// Two racks used: restrict to those racks.
					if _, ok := usedRacks[m.Rack]; !ok {
						return false
					}
				}
			}
		}
		return true
	}

	var options []Media
	// Client collocation: for the very first replica of a fresh block,
	// prefer the writer's own worker (§3.3).
	if p.cfg.ClientLocal && placedSoFar == 0 && len(chosen) == 0 && req.Client.Node != "" {
		for _, m := range s.Media {
			if m.Node == req.Client.Node && keep(m) {
				options = append(options, m)
			}
		}
	}
	if len(options) == 0 {
		for _, m := range s.Media {
			if keep(m) {
				options = append(options, m)
			}
		}
	}
	// Rack-pruning fallback: if the heuristics emptied the candidate
	// set (e.g. all spare capacity sits on the first rack), retry with
	// pruning relaxed rather than failing the write.
	if len(options) == 0 && p.cfg.RackPruning {
		relaxed := *p
		relaxed.cfg.RackPruning = false
		return relaxed.genOptions(req, chosen, entry, placedSoFar, memoryBudget)
	}
	SortMediaStable(options)
	shuffleMedia(options, req.Rand)
	return options
}

// solveMOOP implements Algorithm 1: evaluate every candidate appended
// to the chosen list, score the result against the ideal vector
// (Eq. 11), and return the candidate with the lowest score. The first
// candidate in option order wins ties, so upstream shuffling spreads
// tied load. A non-nil dec receives the ideal vector and every
// candidate's full four-objective vector and score; the scores, and so
// the winner, are the same either way.
func solveMOOP(ctx evalContext, options, chosen []Media,
	objectives []Objective, norm Norm, dec *ReplicaDecision) (Media, bool) {

	if len(options) == 0 {
		return Media{}, false
	}
	trial := make([]Media, len(chosen)+1)
	copy(trial, chosen)
	ideal := ctx.ideal(len(trial))
	evaluated := objectives
	var scored []CandidateScore
	if dec != nil {
		evaluated = AllObjectives()
		scored = make([]CandidateScore, len(options))
	}
	bestScore := 0.0
	bestIdx := -1
	for i, opt := range options {
		trial[len(chosen)] = opt
		f := ctx.vector(trial, evaluated)
		score := scalarise(f, ideal, objectives, norm)
		if scored != nil {
			scored[i] = newCandidateScore(opt, score, f)
		}
		if bestIdx < 0 || score < bestScore {
			bestScore, bestIdx = score, i
		}
	}
	if dec != nil {
		scored[bestIdx].Chosen = true
		dec.Ideal = ideal
		dec.Considered = len(options)
		dec.Candidates = rankCandidates(scored, bestIdx)
	}
	return options[bestIdx], true
}

// SelectExcessReplica implements the over-replication decision of
// paper §5: given the current replica locations of a block, it
// generates the r leave-one-out sublists, scores each with Eq. 11,
// and returns the index of the replica whose removal leaves the
// lowest-scoring (best) remaining set. Candidates may be restricted to
// a tier by passing a concrete tier; TierUnspecified considers all.
func SelectExcessReplica(s *Snapshot, blockSize int64, replicas []Media, tier core.StorageTier) (int, bool) {
	if len(replicas) == 0 {
		return 0, false
	}
	ctx := newEvalContext(s, blockSize)
	bestIdx := -1
	bestScore := 0.0
	rest := make([]Media, 0, len(replicas)-1)
	for i, r := range replicas {
		if tier != core.TierUnspecified && r.Tier != tier {
			continue
		}
		rest = rest[:0]
		rest = append(rest, replicas[:i]...)
		rest = append(rest, replicas[i+1:]...)
		score := ctx.score(rest, AllObjectives(), NormL2)
		if bestIdx < 0 || score < bestScore {
			bestScore, bestIdx = score, i
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx, true
}
