package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkPlaceReplicas measures one three-replica MOOP placement —
// the O(s·r²) hot path of Algorithm 2 — on the paper's 45-media
// cluster and on a 500-media one, without a decision sink (the
// simulator's call) and with one (the master's call).
func BenchmarkPlaceReplicas(b *testing.B) {
	for _, workers := range []int{9, 100} {
		s := paperCluster(workers, 3)
		for _, sink := range []bool{false, true} {
			b.Run(fmt.Sprintf("media=%d/sink=%t", len(s.Media), sink), func(b *testing.B) {
				p := NewMOOPPolicy(DefaultMOOPConfig())
				req := PlacementRequest{
					Snapshot:  s,
					RepVector: core.ReplicationVectorFromFactor(3),
					BlockSize: testBlock,
					Rand:      rand.New(rand.NewSource(1)),
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if sink {
						var decisions []ReplicaDecision
						req.Decisions = &decisions
					}
					if _, err := p.PlaceReplicas(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
