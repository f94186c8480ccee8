// Command octopus-cli is the OctopusFS file system shell: the
// command-line face of the Client API (paper §2.3, Table 1).
//
//	octopus-cli -master host:9000 <command> [args]
//
// Commands:
//
//	mkdir <path>                     create a directory (with parents)
//	ls <path>                        list a directory
//	put <local> <path> [repvector]   upload a file (e.g. "<1,0,2,0,0>")
//	get <path> <local>               download a file
//	cat <path>                       print a file
//	rm [-r] <path>                   delete
//	mv <src> <dst>                   rename
//	stat <path>                      show file status
//	setrep <path> <repvector>        change the replication vector
//	locations <path>                 show block locations with tiers
//	tiers                            show storage tier reports
//	report                           per-worker media statistics
//	quota <dir> <tier|total> <MB>    set a per-tier space quota (-1 clears)
//	du <path>                        subtree usage incl. per-tier bytes
//	fsck <path>                      per-file replication health
//	metrics [-json] <http-addr>      dump a daemon's /metrics endpoint
//	trace <req-id>                   print the merged span timeline of one request
//	events [-json] [-since n] [-type t] [-limit n]
//	                                 page through the cluster event journal
//	audit [-json] [-follow] [-since n] [-op name] [-limit n]
//	                                 tail the namespace audit log: per-op
//	                                 phase breakdown (queue/lock/apply/append/fsync)
//	transfers [-json] [-since n] [-op kind] [-limit n]
//	                                 data-path flight recorder: per-transfer
//	                                 phase breakdown (dial/disk/net/ack) of
//	                                 every client and worker, from the master
//	top [-last n]                    cluster telemetry: live sample + history
//	heat [-json] [-top n] [-file p] [-misplaced]
//	                                 hottest files/blocks + tier-fitness report
//	health                           probe master + all live workers' /healthz
//	explain <path>                   why each replica landed where it did
//	decommission <worker-id>         remove a worker from service
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// knownCommands lists every subcommand run() dispatches on, so main
// can reject typos with usage and a non-zero exit before dialling the
// master.
var knownCommands = map[string]bool{
	"mkdir": true, "ls": true, "put": true, "get": true, "cat": true,
	"rm": true, "mv": true, "stat": true, "setrep": true, "locations": true,
	"tiers": true, "report": true, "quota": true, "du": true, "fsck": true,
	"trace": true, "events": true, "audit": true, "top": true, "heat": true,
	"health": true, "explain": true, "decommission": true, "mover": true,
	"transfers": true,
}

func main() {
	masterAddr := flag.String("master", "localhost:9000", "master RPC address")
	node := flag.String("node", "", "this client's topology node name (for locality)")
	readahead := flag.Int("readahead", 4, "blocks to prefetch ahead of a sequential read (0 disables)")
	writeWindow := flag.Int("write-window", 1, "flushed blocks with outstanding pipeline acks during writes (0 = synchronous)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	// metrics talks to a daemon's HTTP endpoint, not the master RPC
	// port, so handle it before dialling.
	if args[0] == "metrics" {
		fl := flag.NewFlagSet("metrics", flag.ExitOnError)
		jsonOut := fl.Bool("json", false, "dump the JSON exposition instead of Prometheus text")
		fl.Parse(args[1:])
		need(fl.Args(), 1)
		if err := showMetrics(os.Stdout, fl.Args()[0], *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if !knownCommands[args[0]] {
		fmt.Fprintf(os.Stderr, "octopus-cli: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}

	opts := []client.Option{
		client.WithOwner(os.Getenv("USER")),
		client.WithReadahead(*readahead),
		client.WithWriteWindow(*writeWindow),
	}
	if *node != "" {
		opts = append(opts, client.WithNode(*node))
	}
	fs, err := client.Dial(*masterAddr, opts...)
	if err != nil {
		fatal(err)
	}
	defer fs.Close()

	if err := run(fs, args); err != nil {
		fatal(err)
	}
}

func run(fs *client.FileSystem, args []string) error {
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "mkdir":
		need(rest, 1)
		return fs.Mkdir(rest[0], true)

	case "ls":
		need(rest, 1)
		entries, err := fs.List(rest[0])
		if err != nil {
			return err
		}
		for _, e := range entries {
			kind := "-"
			if e.IsDir {
				kind = "d"
			}
			fmt.Printf("%s %-14s %12d  %s  %s\n", kind, e.RepVector, e.Length,
				time.Unix(0, e.ModTime).Format("2006-01-02 15:04"), e.Path)
		}
		return nil

	case "put":
		need(rest, 2)
		rv := core.ReplicationVectorFromFactor(3)
		if len(rest) >= 3 {
			parsed, err := core.ParseReplicationVector(rest[2])
			if err != nil {
				return err
			}
			rv = parsed
		}
		in, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer in.Close()
		w, err := fs.Create(rest[1], client.CreateOptions{RepVector: rv, Overwrite: true})
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, in); err != nil {
			w.Abort()
			return err
		}
		return w.Close()

	case "get":
		need(rest, 2)
		r, err := fs.Open(rest[0])
		if err != nil {
			return err
		}
		defer r.Close()
		out, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, r); err != nil {
			out.Close()
			return err
		}
		return out.Close()

	case "cat":
		need(rest, 1)
		r, err := fs.Open(rest[0])
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(os.Stdout, r)
		return err

	case "rm":
		recursive := false
		if len(rest) > 0 && rest[0] == "-r" {
			recursive, rest = true, rest[1:]
		}
		need(rest, 1)
		return fs.Delete(rest[0], recursive)

	case "mv":
		need(rest, 2)
		return fs.Rename(rest[0], rest[1])

	case "stat":
		need(rest, 1)
		st, err := fs.Stat(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("path:       %s\n", st.Path)
		fmt.Printf("type:       %s\n", map[bool]string{true: "directory", false: "file"}[st.IsDir])
		if !st.IsDir {
			fmt.Printf("length:     %d\n", st.Length)
			fmt.Printf("repvector:  %s\n", st.RepVector)
			fmt.Printf("block size: %d\n", st.BlockSize)
		}
		fmt.Printf("owner:      %s\n", st.Owner)
		fmt.Printf("modified:   %s\n", time.Unix(0, st.ModTime).Format(time.RFC3339))
		return nil

	case "setrep":
		need(rest, 2)
		rv, err := core.ParseReplicationVector(rest[1])
		if err != nil {
			return err
		}
		return fs.SetReplication(rest[0], rv)

	case "locations":
		need(rest, 1)
		blocks, err := fs.GetFileBlockLocations(rest[0], 0, -1)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			fmt.Printf("%s offset=%d len=%d\n", b.Block.ID, b.Offset, b.Block.NumBytes)
			for _, loc := range b.Locations {
				fmt.Printf("  %-8s %-12s %-18s %s\n", loc.Tier, loc.Worker, loc.Storage, loc.Rack)
			}
		}
		return nil

	case "tiers":
		reports, err := fs.GetStorageTierReports()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s%8s%10s%14s%14s%12s%12s\n",
			"tier", "media", "workers", "capacity MB", "remaining MB", "write MB/s", "read MB/s")
		for _, r := range reports {
			fmt.Printf("%-10s%8d%10d%14d%14d%12.1f%12.1f\n",
				r.Tier, r.NumMedia, r.NumWorkers, r.Capacity>>20, r.Remaining>>20,
				r.WriteThruMBps, r.ReadThruMBps)
		}
		return nil

	case "du":
		need(rest, 1)
		sum, err := fs.GetContentSummary(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("path:        %s\n", rest[0])
		fmt.Printf("directories: %d\n", sum.Directories)
		fmt.Printf("files:       %d\n", sum.Files)
		fmt.Printf("bytes:       %d\n", sum.Bytes)
		names := []string{"memory", "ssd", "hdd", "remote", "total"}
		for i, n := range names {
			if sum.TierBytes[i] > 0 {
				fmt.Printf("%-8s replica bytes: %d\n", n, sum.TierBytes[i])
			}
		}
		return nil

	case "fsck":
		need(rest, 1)
		files, err := fs.Fsck(rest[0])
		if err != nil {
			return err
		}
		healthy := 0
		for _, f := range files {
			status := "HEALTHY"
			switch {
			case f.MissingBlocks > 0:
				status = "CORRUPT (missing blocks)"
			case f.UnderConstruction:
				status = "OPEN"
			case f.MissingReplicas > 0 || f.ExcessReplicas > 0:
				status = fmt.Sprintf("DEGRADED (missing %d, excess %d)", f.MissingReplicas, f.ExcessReplicas)
			default:
				healthy++
			}
			fmt.Printf("%-40s %-14s blocks=%d %s\n", f.Path, f.Expected, f.Blocks, status)
		}
		fmt.Printf("%d/%d files healthy\n", healthy, len(files))
		return nil

	case "report":
		workers, err := fs.GetWorkerReports()
		if err != nil {
			return err
		}
		for _, w := range workers {
			fmt.Printf("%s  node=%s rack=%s data=%s net=%.0fMB/s\n",
				w.ID, w.Node, w.Rack, w.DataAddr, w.NetMBps)
			for _, m := range w.Media {
				usedPct := 0.0
				if m.Capacity > 0 {
					usedPct = 100 * float64(m.Capacity-m.Remaining) / float64(m.Capacity)
				}
				fmt.Printf("  %-20s %-8s cap=%6dMB used=%5.1f%% conns=%d w=%.0f r=%.0f MB/s\n",
					m.ID, m.Tier, m.Capacity>>20, usedPct, m.Connections, m.WriteMBps, m.ReadMBps)
			}
		}
		return nil

	case "quota":
		need(rest, 3)
		tier := core.TierUnspecified
		if rest[1] != "total" {
			parsed, err := core.ParseTier(rest[1])
			if err != nil {
				return err
			}
			tier = parsed
		}
		mb, err := strconv.ParseInt(rest[2], 10, 64)
		if err != nil {
			return err
		}
		bytes := mb << 20
		if mb < 0 {
			bytes = -1
		}
		return fs.SetQuota(rest[0], tier, bytes)

	case "trace":
		need(rest, 1)
		spans, err := fs.Trace(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("trace %s: %d spans\n", rest[0], len(spans))
		return trace.RenderTree(os.Stdout, spans)

	case "events":
		return pageLog(cmd, rest, "type", "events", false, formatEvent, fs.Events)

	case "audit":
		return pageLog(cmd, rest, "op", "entries", true, formatAuditEntry, fs.Audit)

	case "transfers":
		return pageLog(cmd, rest, "op", "records", false, formatTransferRecord, fs.Transfers)

	case "top":
		fl := flag.NewFlagSet("top", flag.ContinueOnError)
		last := fl.Int("last", 0, "trailing history samples to fetch (0 = all retained)")
		if err := fl.Parse(rest); err != nil {
			return err
		}
		samples, err := fs.ClusterHistory(*last)
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			fmt.Println("no telemetry samples")
			return nil
		}
		latest := samples[len(samples)-1]
		span := time.Duration(latest.TimeNs - samples[0].TimeNs)
		fmt.Printf("cluster telemetry: %d samples spanning %s — %d files, %d blocks\n",
			len(samples), span.Round(time.Millisecond), latest.Files, latest.Blocks)
		hk := latest.Heat
		fmt.Printf("heat: %d blocks / %d files tracked, total %.1f ops (max %.1f), misplaced %d hot / %d cold\n",
			hk.TrackedBlocks, hk.TrackedFiles, hk.TotalHeat, hk.MaxHeat, hk.MisplacedHot, hk.MisplacedCold)
		fmt.Printf("\n%-10s%8s%14s%14s%12s%12s%10s\n",
			"tier", "media", "capacity MB", "remaining MB", "write MB/s", "read MB/s", "heat")
		for _, t := range latest.Tiers {
			fmt.Printf("%-10s%8d%14d%14d%12.1f%12.1f%10.1f\n",
				t.Tier, t.NumMedia, t.Capacity>>20, t.Remaining>>20,
				t.WriteThruMBps, t.ReadThruMBps, hk.TierHeat[t.Tier])
		}
		fmt.Printf("\n%-14s%14s%12s%8s%12s%12s\n",
			"worker", "capacity MB", "used MB", "conns", "write MB/s", "read MB/s")
		for _, w := range latest.Workers {
			fmt.Printf("%-14s%14d%12d%8d%12.1f%12.1f\n",
				w.ID, w.Capacity>>20, w.Used>>20, w.NetConns, w.WriteMBps, w.ReadMBps)
		}
		return nil

	case "heat":
		fl := flag.NewFlagSet("heat", flag.ContinueOnError)
		jsonOut := fl.Bool("json", false, "emit the report as JSON")
		top := fl.Int("top", 0, "entries per list (0 = server default)")
		file := fl.String("file", "", "restrict the block list to one file")
		misplaced := fl.Bool("misplaced", false, "only the tier-fitness (misplacement) report")
		if err := fl.Parse(rest); err != nil {
			return err
		}
		report, err := fs.Heat(*top, *file, *misplaced)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}
		printHeatReport(report, *misplaced)
		return nil

	case "mover":
		fl := flag.NewFlagSet("mover", flag.ContinueOnError)
		jsonOut := fl.Bool("json", false, "emit the status as JSON")
		if err := fl.Parse(rest); err != nil {
			return err
		}
		status, err := fs.Mover()
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(status)
		}
		printMoverStatus(status)
		return nil

	case "health":
		rep, err := fs.ClusterReport()
		if err != nil {
			return err
		}
		type probe struct{ name, addr string }
		probes := []probe{{"master", rep.MasterHTTP}}
		for _, w := range rep.Workers {
			probes = append(probes, probe{"worker " + string(w.ID), w.HTTPAddr})
		}
		failed := 0
		for _, p := range probes {
			status := "ok"
			if p.addr == "" {
				status = "no http endpoint"
			} else if err := checkHealthz(p.addr); err != nil {
				status = "FAIL: " + err.Error()
				failed++
			}
			fmt.Printf("%-24s %-22s %s\n", p.name, p.addr, status)
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d health checks failed", failed, len(probes))
		}
		return nil

	case "explain":
		need(rest, 1)
		reply, err := fs.Explain(rest[0])
		if err != nil {
			return err
		}
		if len(reply.Blocks) == 0 {
			fmt.Printf("%s: no retained placement decisions (old block, or non-MOOP policy)\n", rest[0])
			return nil
		}
		names := reply.Objectives
		fvec := func(v [4]float64) string {
			return fmt.Sprintf("%s=%.3f %s=%.3f %s=%.3f %s=%.3f",
				names[0], v[0], names[1], v[1], names[2], v[2], names[3], v[3])
		}
		fmt.Printf("%s: %d blocks with placement decisions\n", reply.Path, len(reply.Blocks))
		for _, b := range reply.Blocks {
			verb := "placed"
			if b.Origin != "" {
				// The tier mover rewrote this record: the block's last
				// placement was a heat-driven promotion or demotion.
				verb = fmt.Sprintf("moved (%s, heat %.2f)", b.Origin, b.Heat)
			}
			fmt.Printf("\nblock %d  %s %s  trace=%s\n",
				b.Block, verb, time.Unix(0, b.TimeNs).Format("15:04:05.000"), b.TraceID)
			for i, r := range b.Replicas {
				entry := "any tier"
				if r.Entry != core.TierUnspecified {
					entry = r.Entry.String()
				}
				fmt.Printf("  replica %d (%s): %d candidates considered, ideal %s\n",
					i, entry, r.Considered, fvec(r.Ideal))
				for _, c := range r.Candidates {
					mark := "      "
					if c.Chosen {
						mark = "chosen"
					}
					fmt.Printf("    %s %-20s %-8s %-10s score=%.4f  %s\n",
						mark, c.Storage, c.Tier, c.Node, c.Score, fvec(c.Objectives))
				}
			}
		}
		return nil

	case "decommission":
		need(rest, 1)
		if err := fs.Decommission(core.WorkerID(rest[0])); err != nil {
			return err
		}
		fmt.Printf("worker %s decommissioned; replicas will be re-replicated\n", rest[0])
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}

// printHeatReport renders the heat document: the aggregate line, the
// hottest files and blocks, and the tier-fitness findings with their
// originating placement decisions.
func printHeatReport(r rpc.HeatReport, misplacedOnly bool) {
	agg := r.Aggregate
	fmt.Printf("access heat @ %s (half-life %s): %d blocks / %d files tracked, total %.1f ops, max %.1f\n",
		time.Unix(0, r.TimeNs).Format("15:04:05.000"),
		time.Duration(r.HalfLifeNs), agg.TrackedBlocks, agg.TrackedFiles,
		agg.TotalHeat, agg.MaxHeat)

	if !misplacedOnly {
		if len(r.Files) > 0 {
			fmt.Printf("\n%-32s%10s%12s%12s%14s%14s\n",
				"file", "heat", "read ops", "write ops", "read MB", "write MB")
			for _, f := range r.Files {
				fmt.Printf("%-32s%10.2f%12.2f%12.2f%14.2f%14.2f\n",
					f.Path, f.Heat, f.Read.Ops, f.Write.Ops,
					f.Read.Bytes/(1<<20), f.Write.Bytes/(1<<20))
			}
		}
		if len(r.Blocks) > 0 {
			fmt.Printf("\n%-10s%-28s%10s%12s%12s  %s\n",
				"block", "file", "heat", "read ops", "write ops", "tiers")
			for _, b := range r.Blocks {
				fmt.Printf("%-10d%-28s%10.2f%12.2f%12.2f  %s\n",
					b.Block, b.Path, b.Heat, b.Read.Ops, b.Write.Ops,
					formatTiers(b.Tiers))
			}
		}
	}

	if len(r.Misplaced) == 0 {
		fmt.Printf("\ntier fitness: no misplaced blocks\n")
		return
	}
	fmt.Printf("\ntier fitness: %d hot-on-cold, %d cold-on-premium\n",
		agg.MisplacedHot, agg.MisplacedCold)
	fmt.Printf("%-10s%-24s%-18s%10s%10s%14s  %s\n",
		"block", "file", "kind", "heat", "score", "tiers", "decision")
	for _, mb := range r.Misplaced {
		decision := "(aged out)"
		if mb.DecisionTraceID != "" {
			decision = fmt.Sprintf("trace=%s @ %s", mb.DecisionTraceID,
				time.Unix(0, mb.DecisionTimeNs).Format("15:04:05.000"))
		}
		fmt.Printf("%-10d%-24s%-18s%10.2f%10.2f%14s  %s\n",
			mb.Block, mb.Path, mb.Kind, mb.Heat, mb.Score,
			formatTiers(mb.Tiers), decision)
	}
}

// printMoverStatus renders the tier mover document: governors,
// counters, in-flight moves, and the recent-move ring.
func printMoverStatus(st rpc.MoverStatus) {
	state := "enabled"
	if !st.Enabled {
		state = "disabled"
	}
	budget := "unlimited"
	if st.BytesPerSec > 0 {
		budget = fmt.Sprintf("%d MB/s", st.BytesPerSec>>20)
	}
	fmt.Printf("tier mover %s: interval %s, max %d concurrent, budget %s, cooldown %s\n",
		state, time.Duration(st.IntervalNs), st.MaxConcurrent, budget,
		time.Duration(st.CooldownNs))
	c := st.Counters
	fmt.Printf("moved: %d promoted, %d demoted, %d MB; %d scheduled, %d expired\n",
		c.Promoted, c.Demoted, c.MovedBytes>>20, c.Scheduled, c.Expired)
	fmt.Printf("held back: %d cooldown, %d concurrency, %d budget, %d no-target, %d unhealthy\n",
		c.SkippedCooldown, c.SkippedConcurrency, c.SkippedBudget,
		c.SkippedNoTarget, c.SkippedUnhealthy)

	printMoves := func(title string, moves []rpc.MoveRecord) {
		if len(moves) == 0 {
			return
		}
		fmt.Printf("\n%s:\n", title)
		fmt.Printf("%-10s%-24s%-10s%8s  %-22s%-16s%-16s%s\n",
			"block", "file", "kind", "heat", "move", "before", "after", "outcome")
		for _, mv := range moves {
			after := formatTiers(mv.AfterTiers)
			if mv.FinishedNs == 0 {
				after = "-"
			}
			fmt.Printf("%-10d%-24s%-10s%8.2f  %-22s%-16s%-16s%s\n",
				mv.Block, mv.Path, mv.Kind, mv.Heat,
				fmt.Sprintf("%s→%s", mv.FromTier, mv.ToTier),
				formatTiers(mv.BeforeTiers), after, mv.Outcome)
		}
	}
	printMoves("in flight", st.InFlight)
	printMoves("recent moves (newest first)", st.Recent)
	if len(st.InFlight) == 0 && len(st.Recent) == 0 {
		fmt.Println("no moves yet")
	}
}

// formatTiers renders a replica-count-per-tier vector compactly,
// e.g. "HDD:2" or "MEMORY:1,HDD:2".
func formatTiers(tiers [core.NumTiers]int) string {
	var parts []string
	for t, n := range tiers {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", core.StorageTier(t), n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// checkHealthz probes one daemon's /healthz endpoint.
func checkHealthz(addr string) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	c := &http.Client{Timeout: 3 * time.Second}
	resp, err := c.Get(strings.TrimSuffix(addr, "/") + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}

// showMetrics dumps the Prometheus exposition of a master's or
// worker's HTTP endpoint (or the JSON exposition with jsonOut).
func showMetrics(out io.Writer, addr string, jsonOut bool) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/metrics"
	if jsonOut {
		url += "?format=json"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: %s returned %s", addr, resp.Status)
	}
	_, err = io.Copy(out, resp.Body)
	return err
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: octopus-cli [-master addr] [-node name] [-readahead k] [-write-window k] <command> [args]
commands: mkdir ls put get cat rm mv stat setrep locations tiers report quota du fsck
          metrics trace events audit transfers top heat mover health explain decommission`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "octopus-cli: %v\n", err)
	os.Exit(1)
}
