package integration

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// fetchMetrics GETs a daemon's metrics endpoint and returns the body.
func fetchMetrics(t *testing.T, addr, query string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics" + query)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if query == "" {
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
		}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics body: %v", err)
	}
	return string(body)
}

// parseExposition reads Prometheus text into sample name (incl. labels)
// -> value, ignoring comment lines.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in exposition line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// sumPrefix totals every sample whose name starts with prefix.
func sumPrefix(samples map[string]float64, prefix string) float64 {
	total := 0.0
	for name, v := range samples {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// TestClusterMetricsEndpoints drives a write/read workload through a
// mini-cluster and asserts the master and worker /metrics endpoints
// report the op counts, latency histograms, and per-tier byte counters
// the workload must have produced.
func TestClusterMetricsEndpoints(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.NumRacks = 1
	})
	masterAddr, err := c.Master.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("master ServeHTTP: %v", err)
	}
	workerAddrs := make([]string, len(c.Workers))
	for i, w := range c.Workers {
		if workerAddrs[i], err = w.ServeHTTP("127.0.0.1:0"); err != nil {
			t.Fatalf("worker %d ServeHTTP: %v", i, err)
		}
	}

	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const replicas = 2
	data := randomBytes(2<<20, 11)
	if err := fs.WriteFile("/metrics.bin", data, core.ReplicationVectorFromFactor(replicas)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := fs.ReadFile("/metrics.bin"); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	master := parseExposition(t, fetchMetrics(t, masterAddr, ""))
	for _, op := range []string{"create", "addBlock", "complete", "getBlockLocations"} {
		key := fmt.Sprintf("octopus_master_ops_total{op=%q}", op)
		if master[key] < 1 {
			t.Errorf("%s = %v, want >= 1", key, master[key])
		}
		count := fmt.Sprintf("octopus_master_op_duration_seconds_count{op=%q}", op)
		if master[count] < 1 {
			t.Errorf("%s = %v, want >= 1 (latency histogram missing)", count, master[count])
		}
	}
	if got := sumPrefix(master, "octopus_master_op_duration_seconds_bucket"); got == 0 {
		t.Error("master exposition has no op latency histogram buckets")
	}
	if got := sumPrefix(master, "octopus_master_placements_total"); got < replicas {
		t.Errorf("placements total = %v, want >= %d", got, replicas)
	}
	if got := sumPrefix(master, "octopus_master_retrievals_total"); got < 1 {
		t.Errorf("retrievals total = %v, want >= 1", got)
	}

	// Every replica's bytes must land in some worker's per-tier write
	// counter; the read bytes come from exactly one replica. A worker
	// counts a transfer after its last packet is on the wire, so the
	// totals can trail ReadFile's return: wait for them.
	workerBytes := func(op string) (total float64) {
		for _, addr := range workerAddrs {
			total += sumPrefix(parseExposition(t, fetchMetrics(t, addr, "")), `octopus_worker_bytes_total{op="`+op+`"`)
		}
		return total
	}
	waitFor(t, 5*time.Second, "the workers' byte counters to cover the workload", func() bool {
		return workerBytes("write") >= float64(len(data)*replicas) && workerBytes("read") >= float64(len(data))
	})
	tiered := regexp.MustCompile(`^octopus_worker_bytes_total\{op="(write|read)",tier="(MEMORY|SSD|HDD|REMOTE)"\} `)
	var wrote, read float64
	tierLabelled := false
	for i, addr := range workerAddrs {
		body := fetchMetrics(t, addr, "")
		samples := parseExposition(t, body)
		wrote += sumPrefix(samples, `octopus_worker_bytes_total{op="write"`)
		read += sumPrefix(samples, `octopus_worker_bytes_total{op="read"`)
		for _, line := range strings.Split(body, "\n") {
			if tiered.MatchString(line) {
				tierLabelled = true
			}
		}
		if got := sumPrefix(samples, "octopus_worker_op_duration_seconds_bucket"); got == 0 {
			t.Errorf("worker %d exposition has no op latency histogram buckets", i)
		}
	}
	if want := float64(len(data) * replicas); wrote < want {
		t.Errorf("workers wrote %v bytes, want >= %v", wrote, want)
	}
	if want := float64(len(data)); read < want {
		t.Errorf("workers served %v read bytes, want >= %v", read, want)
	}
	if !tierLabelled {
		t.Error("no octopus_worker_bytes_total sample carries a known tier label")
	}

	// The JSON exposition and health endpoints must work on both daemons.
	for _, addr := range []string{masterAddr, workerAddrs[0]} {
		var decoded []map[string]any
		if err := json.Unmarshal([]byte(fetchMetrics(t, addr, "?format=json")), &decoded); err != nil {
			t.Errorf("%s JSON exposition: %v", addr, err)
		} else if len(decoded) == 0 {
			t.Errorf("%s JSON exposition is empty", addr)
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s /healthz = %s", addr, resp.Status)
		}
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowOpRequestIDCorrelation forces slow-op logging with a zero
// threshold and checks that a single client read carries one request ID
// through both the master's and the serving worker's slow-op lines.
func TestSlowOpRequestIDCorrelation(t *testing.T) {
	var masterLog, workerLog syncBuffer
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 2
		cfg.NumRacks = 1
		cfg.MasterLogger = slog.New(slog.NewTextHandler(&masterLog, nil))
		cfg.WorkerLogger = slog.New(slog.NewTextHandler(&workerLog, nil))
		cfg.SlowOpThreshold = 0 // log every operation
	})
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := randomBytes(1<<20, 13)
	if err := fs.WriteFile("/trace.bin", data, core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := fs.ReadFile("/trace.bin"); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// The worker logs its slow-op line after the last packet is on the
	// wire, i.e. possibly after ReadFile has returned: poll for it. The
	// same request ID must then appear on the master's line for the
	// metadata half of the operation, for the read and for the write.
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("worker log:\n%s\nmaster log:\n%s", workerLog.String(), masterLog.String())
		}
	})
	for _, pair := range [][2]string{{"read", "getBlockLocations"}, {"write", "addBlock"}} {
		workerLine := regexp.MustCompile(`msg="slow op" op=` + pair[0] + ` req=([0-9a-f]{16})`)
		waitFor(t, 10*time.Second, "slow-op "+pair[0]+" line in the worker log and its request ID in the master log", func() bool {
			m := workerLine.FindStringSubmatch(workerLog.String())
			return m != nil && strings.Contains(masterLog.String(), "op="+pair[1]+" req="+m[1])
		})
	}
}
