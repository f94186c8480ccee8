package policy

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// moopConfigs returns every MOOP configuration the system builds: the
// paper default, the four single-objective evaluation policies, and
// the knobs the ablations turn (memory for unspecified replicas, L1,
// no rack pruning, no client collocation).
func moopConfigs() map[string]MOOPConfig {
	cfgs := map[string]MOOPConfig{"MOOP": DefaultMOOPConfig()}
	for _, o := range AllObjectives() {
		cfgs[o.String()] = NewSingleObjectivePolicy(o).cfg
	}
	useMemory := DefaultMOOPConfig()
	useMemory.UseMemory = true
	cfgs["UseMemory"] = useMemory
	l1 := DefaultMOOPConfig()
	l1.Norm = NormL1
	cfgs["L1"] = l1
	noPruning := DefaultMOOPConfig()
	noPruning.RackPruning = false
	noPruning.ClientLocal = false
	cfgs["NoPruning"] = noPruning
	return cfgs
}

// TestExplainedMatchesPlainPlacement proves the decision sink is a
// pure observer: for the same seeded request, PlaceReplicas picks the
// same media and returns the same error with and without it, and with
// it records one decision per placed replica.
func TestExplainedMatchesPlainPlacement(t *testing.T) {
	vectors := []core.ReplicationVector{
		core.ReplicationVectorFromFactor(3),
		core.NewReplicationVector(1, 1, 1, 0, 0),
		core.NewReplicationVector(0, 2, 2, 0, 0),
		core.NewReplicationVector(4, 0, 0, 0, 1), // more memory than fits: partial
		core.NewReplicationVector(0, 0, 0, 1, 0), // no remote media: infeasible
	}
	s := paperCluster(4, 2)
	existing := []Media{*findMedia(s, "node1:ssd0")}
	for name, cfg := range moopConfigs() {
		p := NewMOOPPolicy(cfg)
		for _, rv := range vectors {
			for seed := int64(1); seed <= 5; seed++ {
				req := PlacementRequest{
					Snapshot:  s,
					Client:    topology.Location{Rack: "/rack1", Node: "node1"},
					RepVector: rv,
					BlockSize: testBlock,
				}
				if seed%2 == 0 {
					req.Client = topology.Location{}
					req.Existing = existing
				}
				req.Rand = rand.New(rand.NewSource(seed))
				plain, plainErr := p.PlaceReplicas(req)

				var decisions []ReplicaDecision
				req.Rand = rand.New(rand.NewSource(seed))
				req.Decisions = &decisions
				explained, err := p.PlaceReplicas(req)

				where := fmt.Sprintf("%s %s seed %d", name, rv, seed)
				if fmt.Sprint(plainErr) != fmt.Sprint(err) {
					t.Errorf("%s: error %v without a sink, %v with one", where, plainErr, err)
				}
				if len(plain) != len(explained) {
					t.Fatalf("%s: placed %d without a sink, %d with one", where, len(plain), len(explained))
				}
				for i := range plain {
					if plain[i].ID != explained[i].ID {
						t.Errorf("%s: replica %d is %s without a sink, %s with one",
							where, i, plain[i].ID, explained[i].ID)
					}
				}
				if len(decisions) != len(explained) {
					t.Fatalf("%s: %d decisions for %d replicas", where, len(decisions), len(explained))
				}
				for i, dec := range decisions {
					if dec.Candidates[0].Storage != explained[i].ID {
						t.Errorf("%s: decision %d winner %s, placed %s",
							where, i, dec.Candidates[0].Storage, explained[i].ID)
					}
				}
			}
		}
	}
}

// TestBaselinesExplainNothing pins that the HDFS and rule-based
// baselines leave the decision sink empty.
func TestBaselinesExplainNothing(t *testing.T) {
	s := paperCluster(9, 3)
	for _, p := range []PlacementPolicy{NewHDFSPolicy(), NewHDFSWithSSDPolicy(), NewRuleBasedPolicy()} {
		var decisions []ReplicaDecision
		req := moopRequest(s, core.ReplicationVectorFromFactor(3))
		req.Decisions = &decisions
		if _, err := p.PlaceReplicas(req); err != nil && !errors.Is(err, core.ErrNoSpace) {
			t.Fatalf("%s: PlaceReplicas: %v", p.Name(), err)
		}
		if len(decisions) != 0 {
			t.Errorf("%s recorded %d decisions, want none", p.Name(), len(decisions))
		}
	}
}

// TestExplainDecisionContents checks each decision is self-consistent:
// winner first and marked Chosen, full objective vectors, candidate
// ordering by score, and the Considered total covering the cap.
func TestExplainDecisionContents(t *testing.T) {
	s := paperCluster(9, 3)
	p := NewMOOPPolicy(DefaultMOOPConfig())
	rv := core.NewReplicationVector(1, 1, 1, 0, 0)
	var decisions []ReplicaDecision
	req := moopRequest(s, rv)
	req.Decisions = &decisions
	placed, err := p.PlaceReplicas(req)
	if err != nil {
		t.Fatalf("PlaceReplicas: %v", err)
	}
	entries := rv.PinnedTiers()
	for i, dec := range decisions {
		if dec.Entry != entries[i] {
			t.Errorf("decision %d entry = %v, want %v", i, dec.Entry, entries[i])
		}
		if len(dec.Candidates) == 0 {
			t.Fatalf("decision %d has no candidates", i)
		}
		if len(dec.Candidates) < 2 {
			t.Errorf("decision %d retained %d candidates, want winner plus at least one rejected",
				i, len(dec.Candidates))
		}
		if len(dec.Candidates) > MaxExplainedCandidates {
			t.Errorf("decision %d retained %d candidates, cap is %d",
				i, len(dec.Candidates), MaxExplainedCandidates)
		}
		if dec.Considered < len(dec.Candidates) {
			t.Errorf("decision %d considered %d < retained %d",
				i, dec.Considered, len(dec.Candidates))
		}
		win := dec.Candidates[0]
		if !win.Chosen {
			t.Errorf("decision %d candidate 0 not marked Chosen", i)
		}
		if win.Storage != placed[i].ID || win.Worker != placed[i].Worker || win.Tier != placed[i].Tier {
			t.Errorf("decision %d winner %s != placed %s", i, win.Storage, placed[i].ID)
		}
		for k, c := range dec.Candidates {
			if k > 0 && c.Chosen {
				t.Errorf("decision %d candidate %d also marked Chosen", i, k)
			}
			if k > 0 && c.Score < win.Score {
				t.Errorf("decision %d candidate %d score %.6f beats winner %.6f",
					i, k, c.Score, win.Score)
			}
			if k > 1 && c.Score < dec.Candidates[k-1].Score {
				t.Errorf("decision %d candidates not in ascending score order at %d", i, k)
			}
			var zero [4]float64
			if c.Objectives == zero {
				t.Errorf("decision %d candidate %d has an all-zero objective vector", i, k)
			}
		}
	}
}

// TestExplainScoreMatchesSolver proves, for every MOOP configuration,
// that the per-candidate score recorded in a decision is bit-identical
// to the score the solver ranks by without a sink, and that both runs
// pick the same winner.
func TestExplainScoreMatchesSolver(t *testing.T) {
	s := paperCluster(6, 2)
	ctx := newEvalContext(s, testBlock)
	chosen := []Media{*findMedia(s, "node1:ssd0")}
	var options []Media
	for _, m := range s.Media {
		if m.Tier == core.TierHDD {
			options = append(options, m)
		}
	}
	for name, cfg := range moopConfigs() {
		var dec ReplicaDecision
		best, ok := solveMOOP(ctx, options, chosen, cfg.Objectives, cfg.Norm, &dec)
		if !ok {
			t.Fatalf("%s: solver with a sink found no candidate", name)
		}
		wantBest, wantOK := solveMOOP(ctx, options, chosen, cfg.Objectives, cfg.Norm, nil)
		if !wantOK || best.ID != wantBest.ID {
			t.Fatalf("%s: picked %s with a sink, %s without", name, best.ID, wantBest.ID)
		}
		if dec.Candidates[0].Storage != best.ID || dec.Considered != len(options) {
			t.Errorf("%s: decision winner %s of %d, solver picked %s of %d",
				name, dec.Candidates[0].Storage, dec.Considered, best.ID, len(options))
		}
		// Every retained candidate's score must equal the no-sink
		// evaluation of the same trial selection.
		for _, c := range dec.Candidates {
			trial := []Media{chosen[0], *findMedia(s, c.Storage)}
			if got := ctx.score(trial, cfg.Objectives, cfg.Norm); got != c.Score {
				t.Errorf("%s: candidate %s score %v, no-sink evaluation %v", name, c.Storage, c.Score, got)
			}
		}
	}
}

// TestExplainL1Norm covers the L1 branch of the Eq. 11 scalariser.
func TestExplainL1Norm(t *testing.T) {
	fvec := [4]float64{3, 1, 4, 1.5}
	ideal := [4]float64{1, 1, 2, 0.5}
	objectives := []Objective{DataBalancing, FaultTolerance, ThroughputMax}
	if got := scalarise(fvec, ideal, objectives, NormL1); got != 5 {
		t.Errorf("L1 score = %v, want 5", got)
	}
}
