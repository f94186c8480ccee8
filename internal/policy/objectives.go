package policy

import "math"

// Objective identifies one of the four optimization objectives of the
// data placement MOOP (paper §3.2).
type Objective int

// The four placement objectives. The MOOP policy optimises all of
// them simultaneously; the single-objective evaluation policies of
// paper §7.2 optimise exactly one.
const (
	DataBalancing Objective = iota
	LoadBalancing
	FaultTolerance
	ThroughputMax

	numObjectives
)

var objectiveNames = [...]string{"DB", "LB", "FT", "TM"}

// String returns the paper's two-letter abbreviation for the objective.
func (o Objective) String() string {
	if int(o) < len(objectiveNames) {
		return objectiveNames[o]
	}
	return "OBJ(?)"
}

// AllObjectives returns the full objective set used by the MOOP policy.
func AllObjectives() []Objective {
	return []Objective{DataBalancing, LoadBalancing, FaultTolerance, ThroughputMax}
}

// evalContext carries the cluster-wide anchors needed to evaluate the
// objective and ideal functions: they are computed once per placement
// decision, not once per candidate.
type evalContext struct {
	blockSize     int64
	maxRemPercent float64 // max_m Rem[m]/Cap[m] (Eq. 2)
	minConns      int     // min_m NrConn[m]   (Eq. 4)
	maxWriteThru  float64 // max_m WThru[m]    (Eq. 7/8)
	numTiers      int     // k in Eq. 5
	numWorkers    int     // n in Eq. 5
	numRacks      int     // t in Eq. 5
}

func newEvalContext(s *Snapshot, blockSize int64) evalContext {
	return evalContext{
		blockSize:     blockSize,
		maxRemPercent: s.MaxRemainingPercent(),
		minConns:      s.MinConnections(),
		maxWriteThru:  s.MaxWriteThru(),
		numTiers:      s.NumTiers(),
		numWorkers:    s.NumWorkers(),
		numRacks:      s.NumRacks,
	}
}

// fDataBalancing implements Eq. 1: the sum over the selected media of
// the remaining-capacity percentage after accounting for the block to
// be stored.
func (c evalContext) fDataBalancing(chosen []Media) float64 {
	sum := 0.0
	for _, m := range chosen {
		if m.Capacity > 0 {
			sum += float64(m.Remaining-c.blockSize) / float64(m.Capacity)
		}
	}
	return sum
}

// idealDataBalancing implements Eq. 2: |m| times the best
// remaining-capacity percentage in the cluster.
func (c evalContext) idealDataBalancing(n int) float64 {
	return float64(n) * c.maxRemPercent
}

// fLoadBalancing implements Eq. 3: the sum over the selected media of
// 1/(NrConn+1).
func (c evalContext) fLoadBalancing(chosen []Media) float64 {
	sum := 0.0
	for _, m := range chosen {
		sum += 1 / float64(m.Connections+1)
	}
	return sum
}

// idealLoadBalancing implements Eq. 4: |m| / (min NrConn + 1).
func (c evalContext) idealLoadBalancing(n int) float64 {
	return float64(n) / float64(c.minConns+1)
}

// fFaultTolerance implements Eq. 5: distinct-tier and distinct-node
// ratios plus the two-rack preference term (single-rack clusters score
// the rack term as 1).
func (c evalContext) fFaultTolerance(chosen []Media) float64 {
	if len(chosen) == 0 {
		return 0
	}
	tiers, nodes, racks := distinctCounts(chosen)
	score := 0.0
	if d := min(len(chosen), c.numTiers); d > 0 {
		score += float64(tiers) / float64(d)
	}
	if d := min(len(chosen), c.numWorkers); d > 0 {
		score += float64(nodes) / float64(d)
	}
	if c.numRacks == 1 {
		score += 1
	} else {
		score += 1 / float64(abs(racks-2)+1)
	}
	return score
}

// idealFaultTolerance implements Eq. 6: the constant 3.
func (c evalContext) idealFaultTolerance(int) float64 { return 3 }

// fThroughputMax implements Eq. 7: the sum of log-throughput ratios
// against the fastest media in the cluster.
func (c evalContext) fThroughputMax(chosen []Media) float64 {
	denom := math.Log(c.maxWriteThru)
	if denom <= 0 {
		// All media report <=1 MB/s; ratios degenerate to 1.
		return float64(len(chosen))
	}
	sum := 0.0
	for _, m := range chosen {
		w := m.WriteThruMBps
		if w < 1 {
			w = 1 // clamp so slow media contribute 0, not -Inf
		}
		sum += math.Log(w) / denom
	}
	return sum
}

// idealThroughputMax implements Eq. 8: |m|.
func (c evalContext) idealThroughputMax(n int) float64 { return float64(n) }

// Norm selects the distance norm for the global-criterion scalarisation
// of Eq. 11.
type Norm int

// Supported norms. The paper's ‖·‖ is the Euclidean norm; L1 is kept
// as an ablation knob (see DESIGN.md §6).
const (
	NormL2 Norm = iota
	NormL1
)

// vector evaluates the objective functions of the given set on a
// chosen media list and returns them in (DB, LB, FT, TM) order — the
// vector-valued f of Eq. 9. Objectives outside the set are left 0.
func (c evalContext) vector(chosen []Media, objectives []Objective) [4]float64 {
	var f [4]float64
	for _, o := range objectives {
		switch o {
		case DataBalancing:
			f[o] = c.fDataBalancing(chosen)
		case LoadBalancing:
			f[o] = c.fLoadBalancing(chosen)
		case FaultTolerance:
			f[o] = c.fFaultTolerance(chosen)
		case ThroughputMax:
			f[o] = c.fThroughputMax(chosen)
		}
	}
	return f
}

// ideal evaluates the ideal objective vector z* of Eq. 10 for a
// selection of size n, in (DB, LB, FT, TM) order.
func (c evalContext) ideal(n int) [4]float64 {
	return [4]float64{
		c.idealDataBalancing(n),
		c.idealLoadBalancing(n),
		c.idealFaultTolerance(n),
		c.idealThroughputMax(n),
	}
}

// scalarise computes the Eq. 11 global-criterion distance ‖f − z*‖
// over the requested objective set. Restricting the set to a single
// objective yields the paper's single-objective evaluation policies.
func scalarise(f, ideal [4]float64, objectives []Objective, norm Norm) float64 {
	total := 0.0
	for _, o := range objectives {
		if o < 0 || o >= numObjectives {
			continue
		}
		d := f[o] - ideal[o]
		switch norm {
		case NormL1:
			total += math.Abs(d)
		default:
			total += d * d
		}
	}
	if norm == NormL1 {
		return total
	}
	return math.Sqrt(total)
}

// score computes ‖f(chosen) − z*(chosen)‖ over the requested objective
// set (Eq. 11) for one candidate selection.
func (c evalContext) score(chosen []Media, objectives []Objective, norm Norm) float64 {
	return scalarise(c.vector(chosen, objectives), c.ideal(len(chosen)), objectives, norm)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
