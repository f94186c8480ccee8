package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/events"
	"repro/internal/httpjson"
	"repro/internal/ringlog"
	"repro/internal/xfer"
)

// pageLog is the events, audit and transfers subcommands: the cursor
// flags, then per fetched page either its JSON document or one line
// per record with the loss note and the next cursor. filter names the
// key flag ("type", "op"), noun the records in the loss note; follow
// adds the -follow flag, which keeps polling from Page.Next.
func pageLog[T any](name string, args []string, filter, noun string, follow bool, line func(T) string,
	fetch func(since uint64, key string, limit int) (ringlog.Page[T], map[string]uint64, error)) error {
	fl := flag.NewFlagSet(name, flag.ContinueOnError)
	jsonOut := fl.Bool("json", false, "emit pages as JSON")
	cursor := fl.Uint64("since", 0, "exclusive sequence cursor (0 = oldest retained)")
	key := fl.String(filter, "", "show only records with this "+filter)
	limit := fl.Int("limit", 0, "page size cap (0 = no cap)")
	following := new(bool)
	if follow {
		following = fl.Bool("follow", false, "poll for new records until interrupted")
	}
	if err := fl.Parse(args); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for ; ; time.Sleep(500 * time.Millisecond) {
		page, counts, err := fetch(*cursor, *key, *limit)
		if err != nil {
			return err
		}
		if *jsonOut {
			err = enc.Encode(httpjson.LogDoc[T]{Page: page, Counts: counts})
		} else {
			for _, e := range page.Entries {
				fmt.Println(line(e))
			}
			if page.Missed > 0 {
				fmt.Printf("(%d %s missed to eviction)\n", page.Missed, noun)
			}
			if !*following {
				fmt.Printf("next cursor: %d\n", page.Next)
			}
		}
		if err != nil || !*following {
			return err
		}
		*cursor = page.Next
	}
}

// formatEvent renders one journal event on a single line, attributes
// in key order.
func formatEvent(e events.Event) string {
	line := fmt.Sprintf("%6d  %s  %-5s %-22s %s",
		e.Seq, time.Unix(0, e.Time).Format("15:04:05.000"), e.Severity, e.Type, e.Message)
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%s", k, e.Attrs[k])
	}
	if e.TraceID != "" {
		line += " trace=" + e.TraceID
	}
	return line
}

// formatAuditEntry renders one audit entry on a single line: when it
// finished, what it did to which path, and where the time went.
func formatAuditEntry(e audit.Entry) string {
	status := "ok"
	if e.Result != "ok" {
		status = "ERR"
	}
	line := fmt.Sprintf("%6d  %s  %-19s %-4s total=%-10s queue=%s lock=%s apply=%s",
		e.Seq, time.Unix(0, e.Time).Format("15:04:05.000"), e.Op, status,
		fmtNs(e.TotalNs), fmtNs(e.QueueNs), fmtNs(e.LockWaitNs), fmtNs(e.ApplyNs))
	if e.AppendNs > 0 {
		line += " append=" + fmtNs(e.AppendNs)
	}
	if e.FsyncNs > 0 {
		line += " fsync=" + fmtNs(e.FsyncNs)
	}
	if e.Bytes > 0 {
		line += fmt.Sprintf(" bytes=%d", e.Bytes)
	}
	line += "  " + e.Path
	if e.Dst != "" {
		line += " -> " + e.Dst
	}
	if e.Result != "ok" {
		line += "  err=" + e.Result
	}
	if e.TraceID != "" {
		line += "  trace=" + e.TraceID
	}
	return line
}

// fmtNs renders a nanosecond latency compactly for audit lines.
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// formatTransferRecord renders one flight-recorder record on a single
// line: identity, size, wall time, then only the phases that occurred.
func formatTransferRecord(e xfer.Record) string {
	line := fmt.Sprintf("%6d  %s  %-9s blk=%-8d %9dB  %8s",
		e.Seq, time.Unix(0, e.Time).Format("15:04:05.000"), e.Op, e.Block,
		e.Bytes, fmtNs(e.TotalNs))
	phases := []struct {
		name string
		ns   int64
	}{
		{"dial", e.DialNs}, {"enc", e.HeaderEncodeNs}, {"dec", e.HeaderDecodeNs},
		{"throttle", e.ThrottleWaitNs}, {"disk", e.DiskNs}, {"net", e.NetNs},
		{"fwd", e.ForwardNs}, {"ack", e.AckWaitNs}, {"stall", e.StallNs},
	}
	for _, p := range phases {
		if p.ns > 0 {
			line += fmt.Sprintf(" %s=%s", p.name, fmtNs(p.ns))
		}
	}
	if e.PoolHit {
		line += " pool=hit"
	}
	if e.Tier != "" {
		line += " tier=" + e.Tier
	}
	if e.Peer != "" {
		line += " peer=" + e.Peer
	}
	if e.Result != "ok" && e.Result != "" {
		line += " err=" + e.Result
	}
	if e.TraceID != "" {
		line += " trace=" + e.TraceID
	}
	return line
}
