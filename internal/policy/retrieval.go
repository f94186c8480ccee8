package policy

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"repro/internal/topology"
)

// RetrievalRequest carries everything a retrieval policy needs to
// order the replica locations of one block for a reader.
type RetrievalRequest struct {
	// Snapshot supplies the worker network statistics consulted by
	// the rate estimate; the per-media statistics travel inside
	// Replicas.
	Snapshot *Snapshot

	// Client is the reader's network location. Client.Node is empty
	// when the reader runs off-cluster.
	Client topology.Location

	// Replicas are the block's current replica locations, in any order.
	Replicas []Media

	// Rand shuffles fully tied locations to spread load (paper §4.2).
	// Nil keeps ties in stable ID order.
	Rand *rand.Rand
}

// RetrievalPolicy orders a block's replica locations for a reader
// (paper §4: "pluggable data retrieval policy"). The client reads from
// the first location and fails over down the list.
type RetrievalPolicy interface {
	// Name identifies the policy in reports and benchmarks.
	Name() string

	// Order returns the replicas sorted best-first.
	Order(req RetrievalRequest) []Media
}

// OctopusRetrievalPolicy is the default OctopusFS data retrieval
// policy (paper §4.2). For every replica it estimates the achievable
// transfer rate as
//
//	min( NetThru[W]/NrConn[W], RThru[m]/NrConn[m] )   (Eq. 12)
//
// — the bottleneck of the worker's network share and the media's I/O
// share — skipping the network term for node-local reads. Locations
// are sorted by decreasing rate; network-bottlenecked ties are broken
// by media read throughput, and exact ties are shuffled randomly.
type OctopusRetrievalPolicy struct{}

// NewOctopusRetrievalPolicy returns the default retrieval policy.
func NewOctopusRetrievalPolicy() *OctopusRetrievalPolicy {
	return &OctopusRetrievalPolicy{}
}

// Name implements RetrievalPolicy.
func (p *OctopusRetrievalPolicy) Name() string { return "OctopusFS" }

// rated is a replica's estimated transfer rate.
type rated struct {
	rate       float64
	mediaRate  float64
	netLimited bool
}

// Order implements RetrievalPolicy using the Eq. 12 rate estimate. It
// sorts a copy of the replicas, estimating rates as it compares them,
// so the copy is its one allocation.
func (p *OctopusRetrievalPolicy) Order(req RetrievalRequest) []Media {
	out := slices.Clone(req.Replicas)
	// Pre-shuffle so that fully tied entries end up in random order
	// after the stable sort (paper: "shuffled randomly to help spread
	// the load more evenly").
	if req.Rand != nil {
		req.Rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	} else {
		slices.SortStableFunc(out, func(a, b Media) int { return cmp.Compare(a.ID, b.ID) })
	}
	slices.SortStableFunc(out, func(ma, mb Media) int {
		a, b := p.rate(req, ma), p.rate(req, mb)
		if a.rate != b.rate {
			return -cmp.Compare(a.rate, b.rate)
		}
		// Same estimated rate with the network as the bottleneck:
		// prefer the faster media (paper §4.2).
		if a.netLimited && b.netLimited {
			return -cmp.Compare(a.mediaRate, b.mediaRate)
		}
		return 0
	})
	return out
}

// rate computes the Eq. 12 estimate for one replica.
func (p *OctopusRetrievalPolicy) rate(req RetrievalRequest, m Media) rated {
	mediaRate := m.ReadThruMBps / float64(max(1, m.Connections))
	netRate := math.Inf(1)
	if req.Client.Node == "" || req.Client.Node != m.Node {
		// Remote read: the worker's NIC share applies.
		if w, ok := req.Snapshot.Workers[m.Worker]; ok && w.NetThruMBps > 0 {
			netRate = w.NetThruMBps / float64(max(1, w.Connections))
		}
	}
	r := rated{mediaRate: mediaRate}
	if netRate < mediaRate {
		r.rate, r.netLimited = netRate, true
	} else {
		r.rate = mediaRate
	}
	return r
}

// HDFSRetrievalPolicy reimplements the original HDFS replica ordering
// used as the baseline in paper §7.3: it sorts purely by network
// distance to the reader (local node, then local rack, then off-rack)
// and is oblivious to storage tiers and load.
type HDFSRetrievalPolicy struct{}

// NewHDFSRetrievalPolicy returns the locality-only baseline policy.
func NewHDFSRetrievalPolicy() *HDFSRetrievalPolicy {
	return &HDFSRetrievalPolicy{}
}

// Name implements RetrievalPolicy.
func (p *HDFSRetrievalPolicy) Name() string { return "HDFS" }

// Order implements RetrievalPolicy by increasing topology distance,
// shuffling replicas within the same distance group.
func (p *HDFSRetrievalPolicy) Order(req RetrievalRequest) []Media {
	out := append([]Media(nil), req.Replicas...)
	if req.Rand != nil {
		req.Rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	} else {
		SortMediaStable(out)
	}
	dist := func(m Media) int {
		if req.Client.Node == "" {
			return topology.DistanceOffRack
		}
		return topology.Distance(req.Client,
			topology.Location{Rack: m.Rack, Node: m.Node})
	}
	slices.SortStableFunc(out, func(a, b Media) int { return cmp.Compare(dist(a), dist(b)) })
	return out
}
