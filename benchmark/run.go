package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bufpool"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/integration"
	"repro/internal/rpc"
)

// numClients is the closed-loop client count: one goroutine and one
// client.FileSystem each, equal to nproc on the reference box so the
// two cores are the shared resource.
const numClients = 2

// size is everything about a run that the smoke test shrinks.
type size struct {
	passLen time.Duration // one measured pass
	passes  int           // measured passes of an untraced run
	warmup  time.Duration // one discarded pass on the final cluster
	setups  int           // cluster start + preload repetitions; setup_s is their median

	fileBytes  int64 // dfsio file size
	blockBytes int64 // dfsio block size
	ring       int   // dfsio live files per client

	sliveFiles int // slive_mix preloaded population
	sliveDirs  int

	zipfFiles      int   // tiered_zipf_read population
	zipfMemFiles   int   // hottest ranks pinned to memory
	zipfSSDFiles   int   // next ranks pinned to SSD; the rest go to HDD
	zipfFileBytes  int64 // file size = block size there
	tierMem        int64 // tiered_zipf_read per-worker capacities
	tierSSD        int64
	tierHDD        int64
	probeReps      int // repetitions of each direct probe
	probeNamespace int // op count of the bare-namespace replay
}

// fullSize is the benchmark as BENCHMARK.json defines it. The pass
// length is fixed at 5 s (shorter passes were measurably noisier); the
// requested seconds only choose how many passes are measured.
func fullSize(seconds int) size {
	s := size{
		passLen: 5 * time.Second, passes: max(1, seconds/5), warmup: 5 * time.Second, setups: 3,
		fileBytes: 16 << 20, blockBytes: 4 << 20, ring: 8,
		sliveFiles: 20000, sliveDirs: 256,
		// Under Zipf(1.1) over 200 files the top 24 ranks draw 70% of the
		// reads and the top 120 draw 93%.
		zipfFiles: 200, zipfMemFiles: 24, zipfSSDFiles: 96, zipfFileBytes: 1 << 20, tierMem: 16 << 20, tierSSD: 32 << 20, tierHDD: 512 << 20,
		probeReps: 30, probeNamespace: 2000,
	}
	if seconds < 5 {
		s.passLen = time.Duration(max(1, seconds)) * time.Second
	}
	return s
}

type runConfig struct {
	Workload string
	Seed     int64
	Traced   bool
	Size     size
	WorkDir  string
}

// env is one live cluster with its clients.
type env struct {
	dir     string
	cluster *integration.Cluster
	clients []*clientCtx
}

func (e *env) close() {
	for _, c := range e.clients {
		c.fs.Close()
	}
	e.cluster.Close()
	os.RemoveAll(e.dir)
}

// opSample is one timed operation of a pass.
type opSample struct {
	ns     int64
	mutate bool
}

// clientCtx is one closed-loop client: its connection, its private
// random stream, and the accumulators of the current pass. Only its
// own goroutine touches it while a pass runs.
type clientCtx struct {
	idx int
	fs  *client.FileSystem
	rng *rand.Rand
	tr  *recorder // nil while tracing is off

	ops       []opSample
	attempted int
	failed    int
	bytes     int64 // user bytes moved by successful ops
	elapsed   time.Duration
	errs      []error // first few failures, for the report
	reads     int     // whole-file reads so far, for the every-16th CRC check

	state any // the workload's per-client model
}

// fail counts one failed, refused or mismatched operation.
func (c *clientCtx) fail(err error) {
	c.failed++
	c.note(err)
}

// note keeps the first few errors for the report.
func (c *clientCtx) note(err error) {
	if len(c.errs) < 3 {
		c.errs = append(c.errs, err)
	}
}

// crcDue counts one whole-file read and reports whether it is a 16th:
// every read checks its length, every 16th its content.
func (c *clientCtx) crcDue() bool {
	c.reads++
	return c.reads%16 == 0
}

// call runs one call into the client library; during a traced pass it
// is wrapped in a span.
func (c *clientCtx) call(kind callKind, path string, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	i := c.tr.begin(kind, path)
	err := fn()
	c.tr.end(i)
	return err
}

// iteration brackets one turn of the closed loop. The recorder's root
// span covers everything in it (the op, housekeeping such as the
// dfsio_write delete, and the generator's own time).
func (c *clientCtx) iteration(fn func()) {
	if c.tr == nil {
		fn()
		return
	}
	c.tr.beginIteration()
	fn()
	c.tr.endIteration()
}

// timeOp runs one operation, counts it, and on success records its
// latency and the user bytes it moved.
func (c *clientCtx) timeOp(mutate bool, bytes int64, fn func() error) {
	c.attempted++
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if err != nil {
		c.fail(err)
		return
	}
	c.ops = append(c.ops, opSample{ns: d.Nanoseconds(), mutate: mutate})
	c.bytes += bytes
}

// startEnv boots the workload's cluster under a fresh directory, dials
// the clients and preloads. This is what setup_s times.
func startEnv(cfg runConfig, wl workload, n int) (*env, error) {
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("run-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cc := wl.cluster(filepath.Join(dir, "data"))
	// The daemon-default flush policy: persistent namespace, edit log
	// not fsynced per append, no block fsync.
	cc.MetaDir = filepath.Join(dir, "meta")
	cluster, err := integration.StartCluster(cc)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting cluster: %w", err)
	}
	e := &env{dir: dir, cluster: cluster}
	for i := 0; i < numClients; i++ {
		fs, err := cluster.Client("")
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dialling client %d: %w", i, err)
		}
		e.clients = append(e.clients, &clientCtx{
			idx: i, fs: fs,
			rng: rand.New(rand.NewSource(cfg.Seed*1000003 + int64(i) + 1)),
		})
	}
	if err := wl.preload(e); err != nil {
		e.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return e, nil
}

// passStats is what one pass yields, before medians are taken.
type passStats struct {
	opsPerSec float64
	mbps      float64
	p50, p90  float64 // ms
	p99       float64
	readP50   float64
	mutateP50 float64
	samples   int
}

// runPass drives every client closed-loop for d and folds their
// samples. Throughput is summed per client over that client's own
// elapsed time, so the other client finishing its last op later does
// not count as idle time.
func runPass(e *env, wl workload, d time.Duration) passStats {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		c.ops, c.bytes, c.elapsed = c.ops[:0], 0, 0
		wg.Add(1)
		go func(c *clientCtx) {
			defer wg.Done()
			start := time.Now()
			for time.Since(start) < d {
				c.iteration(func() { wl.iterate(c) })
			}
			c.elapsed = time.Since(start)
		}(c)
	}
	wg.Wait()

	var st passStats
	var all, reads, mutates []float64
	for _, c := range e.clients {
		secs := c.elapsed.Seconds()
		st.opsPerSec += float64(len(c.ops)) / secs
		st.mbps += float64(c.bytes) / (1 << 20) / secs
		for _, op := range c.ops {
			ms := float64(op.ns) / 1e6
			all = append(all, ms)
			if op.mutate {
				mutates = append(mutates, ms)
			} else {
				reads = append(reads, ms)
			}
		}
	}
	sort.Float64s(all)
	sort.Float64s(reads)
	sort.Float64s(mutates)
	st.samples = len(all)
	st.p50, st.p90, st.p99 = quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99)
	st.readP50, st.mutateP50 = quantile(reads, 0.5), quantile(mutates, 0.5)
	return st
}

// run executes one benchmark run: repeated set-up, warm-up, measured
// passes, the untimed verification, and (traced) the probes.
func run(cfg runConfig) (*result, error) {
	wl, err := newWorkload(cfg.Workload, cfg.Seed, cfg.Size)
	if err != nil {
		return nil, err
	}
	res := newResult(cfg)

	// Set-up is repeated and its median reported, so that one slow
	// directory creation does not read as a set-up regression. The last
	// cluster is the one measured.
	var e *env
	setupSecs := make([]float64, 0, cfg.Size.setups)
	for n := 0; n < cfg.Size.setups; n++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if e, err = startEnv(cfg, wl, n); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer e.close()

	runPass(e, wl, cfg.Size.warmup) // discarded: the first pass runs slow

	if cfg.Traced {
		runTraced(cfg, e, wl, res)
	} else {
		runUntraced(cfg, e, wl, res)
		res.putPasses("setup_s", "s", setupSecs, 0)
	}

	// Untimed: every live file is re-read and checked against the seed.
	checked, bad := wl.verify(e)
	res.Attempted += checked
	res.Failed += bad
	for _, c := range e.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, err := range c.errs {
			fmt.Fprintf(os.Stderr, "benchmark: client %d: %v\n", c.idx, err)
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	res.put("failed_frac", "frac", float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// runUntraced measures the end-to-end metrics: tracing off, no poller,
// nothing but the clients and the cluster running.
func runUntraced(cfg runConfig, e *env, wl workload, res *result) {
	res.Passes = cfg.Size.passes
	var ops, mbps, p50, p90, p99, rp50, mp50 []float64
	samples := 0
	for p := 0; p < cfg.Size.passes; p++ {
		st := runPass(e, wl, cfg.Size.passLen)
		ops, mbps = append(ops, st.opsPerSec), append(mbps, st.mbps)
		p50, p90, p99 = append(p50, st.p50), append(p90, st.p90), append(p99, st.p99)
		rp50, mp50 = append(rp50, st.readP50), append(mp50, st.mutateP50)
		samples += st.samples
	}
	res.putPasses("ops_per_s", "1/s", ops, samples)
	res.putPasses("op_p50_ms", "ms", p50, samples)
	res.putPasses("op_p90_ms", "ms", p90, samples)
	// The rest are reported here for the reader and gated nowhere: they
	// are not defined on every workload, so BENCHMARK.json lists them
	// per layer, where the traced run emits them.
	res.putPasses("data_mbps", "MiB/s", mbps, samples)
	res.putPasses("client.op_p99_ms", "ms", p99, samples)
	res.putPasses("read_op_p50_ms", "ms", rp50, 0)
	res.putPasses("mutate_op_p50_ms", "ms", mp50, 0)
	ratio, _ := storedBytes(e, wl.liveBytes(e))
	res.put("stored_bytes_per_user_byte", "ratio", ratio)
}

// storedBytes waits briefly for asynchronous replica deletions to
// drain, then returns Σ Media.Used() per live user byte and the used
// bytes per tier. Without live user bytes (slive_mix) the ratio is 0.
func storedBytes(e *env, live int64) (ratio float64, perTier map[core.StorageTier]int64) {
	sum := func() (int64, map[core.StorageTier]int64) {
		var total int64
		tiers := make(map[core.StorageTier]int64)
		for _, w := range e.cluster.Workers {
			for _, m := range w.Media() {
				u := m.Used()
				total += u
				tiers[m.Tier()] += u
			}
		}
		return total, tiers
	}
	total, tiers := sum()
	for i := 0; i < 30 && live > 0; i++ {
		time.Sleep(100 * time.Millisecond)
		next, nt := sum()
		if next == total {
			break
		}
		total, tiers = next, nt
	}
	if live <= 0 {
		return 0, tiers
	}
	return float64(total) / float64(live), tiers
}

// counters is a snapshot of every cumulative counter the layers
// export, taken at pass boundaries; metrics are deltas of two.
type counters struct {
	pool      rpc.PoolStats
	buf       bufpool.Stats
	mem       runtime.MemStats
	cpu       time.Duration
	masterOps float64
	auditDrop uint64
	editBytes int64
	promoted  int64
	demoted   int64
	moved     int64
}

// clientRPCs are the master operations clients originate; the sum of
// their octopus_master_ops_total deltas is the workload's RPC count.
var clientRPCs = []string{
	"mkdir", "create", "addBlock", "commitBlock", "complete", "abandon", "abandonBlock",
	"getBlockLocations", "getFileInfo", "list", "delete", "rename",
	"reportSpans", "reportTransfers", "reportBadBlock",
}

func snapshot(e *env) counters {
	var c counters
	c.pool = rpc.DataPoolStats()
	c.buf = bufpool.Snapshot()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m := e.cluster.Master
	ops := m.Metrics().CounterVec("octopus_master_ops_total", "RPC operations served, by operation.", "op")
	for _, op := range clientRPCs {
		c.masterOps += ops.With(op).Value()
	}
	c.auditDrop = m.AuditLog().Dropped()
	if fi, err := os.Stat(filepath.Join(e.dir, "meta", "edits")); err == nil {
		c.editBytes = fi.Size()
	}
	if st, err := e.clients[0].fs.Mover(); err == nil {
		c.promoted, c.demoted, c.moved = st.Counters.Promoted, st.Counters.Demoted, st.Counters.MovedBytes
	}
	return c
}
