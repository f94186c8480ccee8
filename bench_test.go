package octopusfs

// One benchmark per table and figure of the paper's evaluation (§7),
// plus micro-benchmarks for the policy hot paths. The experiment
// logic lives in internal/bench; these harness it under testing.B so
// `go test -bench=.` regenerates every result. Figure benchmarks run
// scaled-down data sizes per iteration; `go run ./cmd/octopus-bench`
// prints the full paper-size results.

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BenchmarkTable2MediaThroughput probes throttled media like a worker
// does at startup (paper Table 2).
func BenchmarkTable2MediaThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2(8 << 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("probed %d media types, want 3", len(rows))
		}
	}
}

// BenchmarkFig2TieredStorage runs the §7.1 tiered-storage DFSIO sweep
// (six replication vectors × five parallelism degrees) at 1 GB per
// cell.
func BenchmarkFig2TieredStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFig2(1024)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 30 {
			b.Fatalf("fig2 produced %d points, want 30", len(points))
		}
	}
}

// BenchmarkFig3PlacementPolicies runs the §7.2 eight-policy DFSIO
// comparison at 4 GB.
func BenchmarkFig3PlacementPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.RunFig3(4096)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 8 {
			b.Fatalf("fig3 produced %d series, want 8", len(series))
		}
	}
}

// BenchmarkFig4TierCapacities regenerates the Figure 4 per-tier
// remaining capacities (a by-product of the Figure 3 write phase).
func BenchmarkFig4TierCapacities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := bench.RunFig3(4096)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if len(s.RemainingPercent) == 0 {
				b.Fatalf("fig4: policy %s reported no tier capacities", s.Policy)
			}
		}
	}
}

// BenchmarkFig5Retrieval runs the §7.3 retrieval-policy comparison at
// 1 GB per cell.
func BenchmarkFig5Retrieval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFig5(1024)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 10 {
			b.Fatalf("fig5 produced %d points, want 10", len(points))
		}
	}
}

// BenchmarkTable3NamespaceOps stress-tests the live master's
// namespace operations (paper §7.4) with a reduced operation count.
func BenchmarkTable3NamespaceOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable3(b.TempDir(), 2, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("table3 produced %d rows, want 6", len(rows))
		}
	}
}

// BenchmarkFig6HiBench runs the §7.5 Hadoop/Spark workload suite over
// HDFS-policy and OctopusFS-policy clusters.
func BenchmarkFig6HiBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 18 {
			b.Fatalf("fig6 produced %d rows, want 18", len(rows))
		}
	}
}

// BenchmarkFig7Pegasus runs the §7.6 Pegasus optimisation study.
func BenchmarkFig7Pegasus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("fig7 produced %d rows, want 4", len(rows))
		}
	}
}

// BenchmarkRetrievalOrdering measures one Eq. 12 replica ordering.
func BenchmarkRetrievalOrdering(b *testing.B) {
	c := sim.NewCluster(sim.PaperClusterConfig())
	snap := c.Snapshot()
	p := policy.NewOctopusRetrievalPolicy()
	rng := rand.New(rand.NewSource(1))
	req := policy.RetrievalRequest{
		Snapshot: snap,
		Replicas: snap.Media[:3],
		Rand:     rng,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Order(req)
	}
}

// BenchmarkReplicationVectorCodec measures the 64-bit vector codec.
func BenchmarkReplicationVectorCodec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := core.NewReplicationVector(i%3, i%2, 2, 0, i%4)
		if v.Total() < 2 {
			b.Fatal("unexpected total")
		}
		_ = v.Diff(core.ReplicationVectorFromFactor(3))
	}
}

// BenchmarkSimDFSIOWrite measures simulator throughput itself: one
// full 1 GB DFSIO write pass per iteration.
func BenchmarkSimDFSIOWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := sim.NewCluster(sim.PaperClusterConfig())
		_, err := workloads.RunWrite(workloads.DFSIOConfig{
			Cluster: c, Threads: 27, TotalMB: 1024, BlockMB: 128,
			RepVector: core.ReplicationVectorFromFactor(3), PathPrefix: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMOOPVariants runs the MOOP design-choice ablation
// (rack pruning, norm, collocation, load-awareness) at 4 GB.
func BenchmarkAblationMOOPVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAblation(4096)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("ablation produced %d rows, want 5", len(rows))
		}
	}
}
