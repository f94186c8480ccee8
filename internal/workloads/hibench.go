package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// EngineKind distinguishes the two processing frameworks of the
// paper's §7.5 evaluation.
type EngineKind int

// The evaluated frameworks.
const (
	// Hadoop MapReduce persists every inter-job dataset to the file
	// system and re-reads inputs each iteration.
	Hadoop EngineKind = iota

	// Spark keeps inter-stage data and cached input RDDs in executor
	// memory, touching the file system only for initial input and
	// final output — which is why the paper observes smaller (but
	// still real) gains for Spark.
	Spark
)

// String names the engine.
func (e EngineKind) String() string {
	if e == Hadoop {
		return "Hadoop"
	}
	return "Spark"
}

// HiBenchWorkload models one HiBench benchmark (paper §7.5, Figure 6):
// how much data it reads, shuffles between jobs, writes, how compute-
// heavy its tasks are, and how many chained jobs (or iterations) it
// runs.
type HiBenchWorkload struct {
	Name     string
	Category string // "micro", "olap", "ml"

	InputMB        int64   // initial dataset size
	InterMB        int64   // dataset passed between consecutive jobs
	OutputMB       int64   // final output size
	ComputePerTask float64 // seconds of CPU per task per job
	Jobs           int     // chained jobs (iterations for ML)
	IterativeInput bool    // every job re-reads the input (graph/ML)
}

// HiBenchSuite returns the nine workloads of the paper's §7.5
// evaluation: three micro benchmarks, three OLAP queries, and three
// machine-learning workloads. Sizes follow HiBench's large-scale
// profile shrunk to the paper's 10-node cluster (execution times land
// in the paper's 1–42 minute range).
func HiBenchSuite() []HiBenchWorkload {
	return []HiBenchWorkload{
		// Micro benchmarks: I/O dominated.
		{Name: "Sort", Category: "micro", InputMB: 30_000, OutputMB: 30_000, ComputePerTask: 1, Jobs: 1},
		{Name: "Wordcount", Category: "micro", InputMB: 30_000, OutputMB: 60, ComputePerTask: 42, Jobs: 1},
		{Name: "Terasort", Category: "micro", InputMB: 30_000, OutputMB: 30_000, ComputePerTask: 8, Jobs: 1},
		// OLAP queries (Hive-style chained MR jobs).
		{Name: "Scan", Category: "olap", InputMB: 20_000, OutputMB: 18_000, ComputePerTask: 3, Jobs: 1},
		{Name: "Join", Category: "olap", InputMB: 18_000, InterMB: 14_000, OutputMB: 2_000, ComputePerTask: 10, Jobs: 2},
		{Name: "Aggregation", Category: "olap", InputMB: 16_000, InterMB: 8_000, OutputMB: 500, ComputePerTask: 8, Jobs: 2},
		// Machine learning / graph analytics (iterative).
		{Name: "Pagerank", Category: "ml", InputMB: 4_000, InterMB: 9_000, OutputMB: 1_500, ComputePerTask: 6, Jobs: 4, IterativeInput: true},
		{Name: "Bayes", Category: "ml", InputMB: 12_000, InterMB: 10_000, OutputMB: 600, ComputePerTask: 18, Jobs: 3},
		{Name: "Kmeans", Category: "ml", InputMB: 16_000, InterMB: 500, OutputMB: 300, ComputePerTask: 40, Jobs: 4, IterativeInput: true},
	}
}

// RunHiBench executes one workload on one engine over the given
// simulated cluster (whose placement/retrieval policies embody the
// file system under test) and returns the makespan in seconds.
//
// Hadoop materialises inter-job datasets in the file system and, for
// iterative workloads, re-reads the input every iteration. Spark
// caches the input RDD after the first read and keeps inter-stage
// data in executor memory.
func RunHiBench(c *sim.Cluster, w HiBenchWorkload, engine EngineKind, tasks int, blockMB int64) (float64, error) {
	inputPath := "/hibench/" + w.Name + "/input"
	rv3 := core.ReplicationVectorFromFactor(3)
	if err := LoadDataset(c, inputPath, w.InputMB, blockMB, rv3); err != nil {
		return 0, err
	}

	start := c.Engine.Now()
	prevPath := inputPath
	for j := 0; j < w.Jobs; j++ {
		last := j == w.Jobs-1
		job := JobSpec{
			Name:              fmt.Sprintf("%s-j%d", w.Name, j),
			ComputeSecPerTask: w.ComputePerTask,
			WriteRV:           rv3,
			OverheadSec:       engineOverheadSec(engine),
		}
		// Read phase.
		switch {
		case j == 0:
			job.ReadPath = inputPath
		case engine == Hadoop:
			job.ReadPath = prevPath
			if w.IterativeInput {
				// Iterative Hadoop jobs re-read the input too; model
				// the bigger of the two datasets plus the smaller as
				// a combined read by chaining a pre-read of input.
				if err := readDataset(c, inputPath, tasks); err != nil {
					return 0, err
				}
			}
		case engine == Spark:
			// Cached RDDs: no file system read after the first job.
			job.ReadPath = ""
		}
		// Write phase.
		switch {
		case last:
			job.WritePath = "/hibench/" + w.Name + "/output"
			job.WriteMB = w.OutputMB
		case engine == Hadoop:
			job.WritePath = fmt.Sprintf("/hibench/%s/inter-%d", w.Name, j)
			job.WriteMB = w.InterMB
		default:
			job.WritePath = "" // Spark keeps it in executor memory
		}

		if _, err := RunJob(c, job, tasks, blockMB); err != nil {
			return 0, err
		}
		// Short-lived intermediates are dropped once consumed.
		if engine == Hadoop && j > 0 && prevPath != inputPath {
			DeleteDataset(c, prevPath)
		}
		if job.WritePath != "" && !last {
			prevPath = job.WritePath
		}
	}
	return c.Engine.Now() - start, nil
}

// engineOverheadSec models per-job framework overhead (job setup,
// task scheduling) that the file system cannot accelerate.
func engineOverheadSec(e EngineKind) float64 {
	if e == Spark {
		return 4
	}
	return 8
}

// readDataset simulates a full parallel read of a dataset (used for
// iterative Hadoop jobs that re-scan their input each iteration).
func readDataset(c *sim.Cluster, path string, tasks int) error {
	job := JobSpec{Name: "scan:" + path, ReadPath: path}
	_, err := RunJob(c, job, tasks, 1)
	return err
}
