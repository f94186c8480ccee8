package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/integration"
	"repro/internal/rpc"
)

// TestCLICommands drives the shell's command dispatcher end to end
// against a live in-process cluster.
func TestCLICommands(t *testing.T) {
	cfg := integration.DefaultClusterConfig(t.TempDir())
	cfg.SlowOpThreshold = time.Nanosecond // keep every trace for the trace command
	cluster, err := integration.StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	local := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(local, []byte("cli round trip payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.bin")

	steps := [][]string{
		{"mkdir", "/cli"},
		{"put", local, "/cli/f", "<1,0,2,0,0>"},
		{"ls", "/cli"},
		{"stat", "/cli/f"},
		{"locations", "/cli/f"},
		{"explain", "/cli/f"},
		{"events"},
		{"events", "-json", "-limit", "5"},
		{"events", "-type", "block_committed"},
		{"top"},
		{"top", "-last", "3"},
		{"heat"},
		{"heat", "-json"},
		{"heat", "-top", "5"},
		{"heat", "-file", "/cli/f"},
		{"heat", "-misplaced"},
		{"mover"},
		{"mover", "-json"},
		{"health"},
		{"tiers"},
		{"report"},
		{"du", "/cli"},
		{"fsck", "/cli"},
		{"setrep", "/cli/f", "<0,1,2,0,0>"},
		{"get", "/cli/f", out},
		{"mv", "/cli/f", "/cli/g"},
		{"quota", "/cli", "memory", "64"},
		{"quota", "/cli", "total", "-1"},
		{"rm", "/cli/g"},
		{"rm", "-r", "/cli"},
	}
	for _, step := range steps {
		if err := run(fs, step); err != nil {
			t.Fatalf("cli %v: %v", step, err)
		}
	}

	got, err := os.ReadFile(out)
	if err != nil || string(got) != "cli round trip payload" {
		t.Fatalf("get round trip: %q, %v", got, err)
	}

	// The trace subcommand renders the merged span timeline of a real
	// write (the default zero slow-op threshold retains every trace).
	w, err := fs.Create("/traced", client.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("traced payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(fs, []string{"trace", w.ReqID()}); err != nil {
		t.Fatalf("cli trace %s: %v", w.ReqID(), err)
	}
	if err := run(fs, []string{"trace", "ffffffffffffffff"}); err == nil {
		t.Error("trace of unknown request ID succeeded")
	}

	// Error paths surface cleanly.
	if err := run(fs, []string{"stat", "/missing"}); err == nil {
		t.Error("stat of missing path succeeded")
	}
	if err := run(fs, []string{"setrep", "/missing", "bogus"}); err == nil {
		t.Error("setrep with bogus vector succeeded")
	}
	if err := run(fs, []string{"definitely-not-a-command"}); err == nil {
		t.Error("unknown command succeeded")
	}
	if err := run(fs, []string{"explain", "/missing"}); err == nil {
		t.Error("explain of missing path succeeded")
	}
	if err := run(fs, []string{"decommission", "no-such-worker"}); err == nil {
		t.Error("decommission of unknown worker succeeded")
	}
}

// TestCLIHeatRanking checks the heat subcommand's rendered ranking
// puts a skew-read hot file above a barely-touched one, and that the
// -json variant emits the machine-readable report in the same order.
func TestCLIHeatRanking(t *testing.T) {
	cluster, err := integration.StartCluster(integration.DefaultClusterConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	fs, err := cluster.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := []byte("heat ranking payload")
	for _, path := range []string{"/hotfile", "/coldfile"} {
		if err := fs.WriteFile(path, data, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			r, err := fs.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, r)
			r.Close()
		}
	}
	read("/hotfile", 8)
	read("/coldfile", 1)

	// File-level heat is recorded synchronously at open time, so the
	// ranking is immediately visible.
	capture := func(args []string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := run(fs, args)
		w.Close()
		os.Stdout = old
		out, _ := io.ReadAll(r)
		if runErr != nil {
			t.Fatalf("cli %v: %v", args, runErr)
		}
		return string(out)
	}

	out := capture([]string{"heat", "-top", "5"})
	hotAt := strings.Index(out, "/hotfile")
	coldAt := strings.Index(out, "/coldfile")
	if hotAt < 0 || coldAt < 0 {
		t.Fatalf("heat output missing files:\n%s", out)
	}
	if hotAt > coldAt {
		t.Errorf("/hotfile ranked below /coldfile:\n%s", out)
	}

	var report rpc.HeatReport
	if err := json.Unmarshal([]byte(capture([]string{"heat", "-json"})), &report); err != nil {
		t.Fatalf("heat -json is not JSON: %v", err)
	}
	if len(report.Files) == 0 || report.Files[0].Path != "/hotfile" {
		t.Errorf("heat -json ranking = %+v, want /hotfile first", report.Files)
	}
}

// TestCLIMetrics fetches a live master's Prometheus exposition through
// the metrics subcommand's fetcher.
func TestCLIMetrics(t *testing.T) {
	cluster, err := integration.StartCluster(integration.DefaultClusterConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addr := cluster.Master.HTTPAddr()

	var out strings.Builder
	if err := showMetrics(&out, addr, false); err != nil {
		t.Fatalf("showMetrics: %v", err)
	}
	if !strings.Contains(out.String(), "octopus_master_workers") {
		t.Fatalf("exposition missing octopus_master_workers:\n%s", out.String())
	}

	// The -json variant fetches the JSON exposition.
	var jsonOut strings.Builder
	if err := showMetrics(&jsonOut, addr, true); err != nil {
		t.Fatalf("showMetrics -json: %v", err)
	}
	var doc any
	if err := json.Unmarshal([]byte(jsonOut.String()), &doc); err != nil {
		t.Fatalf("-json exposition is not JSON: %v\n%s", err, jsonOut.String())
	}

	if err := showMetrics(&out, "127.0.0.1:1", false); err == nil {
		t.Error("showMetrics against a dead address succeeded")
	}
}
