package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/integration"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/workloads"
)

// Table2Row is one media type's probed throughput (paper Table 2).
type Table2Row struct {
	Media     string
	WriteMBps float64
	ReadMBps  float64
	TargetW   float64 // the emulated device's configured rate
	TargetR   float64
	// SchedW and SchedR are the limiters' own schedule: probe bytes ÷ the
	// time they made the probe wait (+Inf when the host never got ahead).
	SchedW     float64
	SchedR     float64
	ProbeBytes int64
}

// RunTable2 reproduces Table 2: each worker's startup I/O probe
// measuring sustained write and read throughput per storage media.
// The media are throttled to the paper's device speeds, so the probe
// validates that the emulation reproduces the paper's Table 2.
func RunTable2(probeBytes int64) ([]Table2Row, error) {
	if probeBytes <= 0 {
		probeBytes = 32 << 20
	}
	dir, cleanup, err := integration.TempDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	configs := []struct {
		name string
		cfg  storage.MediaConfig
	}{
		{"Memory", storage.MediaConfig{
			ID: "probe:mem", Tier: core.TierMemory, Capacity: 4 * probeBytes,
			WriteMBps: integration.MemWriteMBps, ReadMBps: integration.MemReadMBps,
		}},
		{"SSD", storage.MediaConfig{
			ID: "probe:ssd", Tier: core.TierSSD, Capacity: 4 * probeBytes,
			WriteMBps: integration.SSDWriteMBps, ReadMBps: integration.SSDReadMBps,
			Dir: dir + "/ssd",
		}},
		{"HDD", storage.MediaConfig{
			ID: "probe:hdd", Tier: core.TierHDD, Capacity: 4 * probeBytes,
			WriteMBps: integration.HDDWriteMBps, ReadMBps: integration.HDDReadMBps,
			Dir: dir + "/hdd",
		}},
	}
	sched := func(l *storage.RateLimiter) float64 {
		bytes, waited := l.Stats()
		return float64(bytes) / 1e6 / waited.Seconds()
	}
	var rows []Table2Row
	for _, c := range configs {
		m, err := storage.OpenMedia(c.cfg)
		if err != nil {
			return nil, err
		}
		w, r, err := m.Probe(probeBytes)
		m.Close()
		if err != nil {
			return nil, fmt.Errorf("table2 probe %s: %w", c.name, err)
		}
		rows = append(rows, Table2Row{
			Media: c.name, WriteMBps: w, ReadMBps: r,
			TargetW: c.cfg.WriteMBps, TargetR: c.cfg.ReadMBps,
			SchedW: sched(m.WriteLimit()), SchedR: sched(m.ReadLimit()),
			ProbeBytes: probeBytes,
		})
	}
	return rows, nil
}

// PrintTable2 renders Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "\nTable 2: probed write/read throughput (MB/s) per storage media")
	fmt.Fprintf(w, "%-10s%14s%14s%14s%14s\n", "media", "write", "read", "paper write", "paper read")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s%14.1f%14.1f%14.1f%14.1f\n", r.Media, r.WriteMBps, r.ReadMBps, r.TargetW, r.TargetR)
	}
}

// Table3Row compares one namespace operation's rate between the
// HDFS-equivalent configuration and OctopusFS (paper Table 3).
type Table3Row struct {
	Op            workloads.SLiveOp
	HDFSOpsPerSec float64
	OctoOpsPerSec float64
}

// RunTable3 reproduces §7.4: the S-Live namespace stress test against
// two live in-process deployments — one configured like plain HDFS
// (HDD-only placement, locality-only retrieval, scalar replication)
// and one with the full OctopusFS policies — reporting operations per
// second per configuration. Like the paper's protocol, the experiment
// is repeated (four interleaved rounds) and the rates averaged, which
// cancels background drift on shared machines.
func RunTable3(dir string, clients, opsPerClient int) ([]Table3Row, error) {
	const rounds = 4
	sumH := map[workloads.SLiveOp]float64{}
	sumO := map[workloads.SLiveOp]float64{}
	for round := 0; round < rounds; round++ {
		rows, err := runTable3Once(fmt.Sprintf("%s/r%d", dir, round), clients, opsPerClient)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			sumH[r.Op] += r.HDFSOpsPerSec
			sumO[r.Op] += r.OctoOpsPerSec
		}
	}
	var rows []Table3Row
	for _, op := range workloads.SLiveOps() {
		rows = append(rows, Table3Row{
			Op:            op,
			HDFSOpsPerSec: sumH[op] / rounds,
			OctoOpsPerSec: sumO[op] / rounds,
		})
	}
	return rows, nil
}

func runTable3Once(dir string, clients, opsPerClient int) ([]Table3Row, error) {
	run := func(placement policy.PlacementPolicy, retrieval policy.RetrievalPolicy, sub string) (map[workloads.SLiveOp]float64, error) {
		cfg := integration.DefaultClusterConfig(dir + "/" + sub)
		cfg.NumWorkers = 3
		cfg.Placement = placement
		cfg.Retrieval = retrieval
		c, err := integration.StartCluster(cfg)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		results, err := workloads.RunSLive(workloads.SLiveConfig{
			MasterAddr:   c.Master.Addr(),
			Clients:      clients,
			OpsPerClient: opsPerClient,
		})
		if err != nil {
			return nil, err
		}
		out := map[workloads.SLiveOp]float64{}
		for _, r := range results {
			out[r.Op] = r.OpsPerSec
		}
		return out, nil
	}

	hdfs, err := run(policy.NewHDFSPolicy(), policy.NewHDFSRetrievalPolicy(), "hdfs")
	if err != nil {
		return nil, fmt.Errorf("table3 hdfs run: %w", err)
	}
	octo, err := run(nil, nil, "octo") // nil = MOOP + OctopusFS defaults
	if err != nil {
		return nil, fmt.Errorf("table3 octopus run: %w", err)
	}
	var rows []Table3Row
	for _, op := range workloads.SLiveOps() {
		rows = append(rows, Table3Row{Op: op, HDFSOpsPerSec: hdfs[op], OctoOpsPerSec: octo[op]})
	}
	return rows, nil
}

// PrintTable3 renders Table 3.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "\nTable 3: namespace operations per second (live cluster)")
	fmt.Fprintf(w, "%-12s%16s%16s%12s\n", "operation", "HDFS-config", "OctopusFS", "overhead")
	for _, r := range rows {
		overhead := 0.0
		if r.HDFSOpsPerSec > 0 {
			overhead = 100 * (r.HDFSOpsPerSec - r.OctoOpsPerSec) / r.HDFSOpsPerSec
		}
		fmt.Fprintf(w, "%-12s%16.1f%16.1f%11.1f%%\n", r.Op, r.HDFSOpsPerSec, r.OctoOpsPerSec, overhead)
	}
}
