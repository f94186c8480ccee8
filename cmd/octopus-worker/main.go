// Command octopus-worker runs an OctopusFS Worker (paper §2.2): it
// manages the storage media described by -media, registers with the
// master, and serves block reads and pipelined writes.
//
// Example with one memory media, one SSD-backed and two HDD-backed
// directories:
//
//	octopus-worker -master host:9000 -node node1 -rack /rack1 \
//	  -media memory:4096 \
//	  -media ssd:65536:/mnt/ssd0/blocks \
//	  -media hdd:409600:/mnt/hdd0/blocks \
//	  -media hdd:409600:/mnt/hdd1/blocks
//
// Each -media value is kind:capacityMB[:dir[:writeMBps:readMBps]];
// the optional throughput pair throttles the media to emulate a slower
// device (used to reproduce the paper's cluster on one machine).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/worker"
)

// mediaFlags collects repeated -media flags.
type mediaFlags []storage.MediaConfig

func (m *mediaFlags) String() string { return fmt.Sprintf("%d media", len(*m)) }

func (m *mediaFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 {
		return fmt.Errorf("media %q: want kind:capacityMB[:dir[:writeMBps:readMBps]]", v)
	}
	tier, err := storage.TierFromKind(parts[0])
	if err != nil {
		return err
	}
	capMB, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || capMB <= 0 {
		return fmt.Errorf("media %q: bad capacity %q", v, parts[1])
	}
	cfg := storage.MediaConfig{Tier: tier, Capacity: capMB << 20}
	if len(parts) >= 3 {
		cfg.Dir = parts[2]
	}
	if len(parts) >= 5 {
		if cfg.WriteMBps, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return fmt.Errorf("media %q: bad write rate %q", v, parts[3])
		}
		if cfg.ReadMBps, err = strconv.ParseFloat(parts[4], 64); err != nil {
			return fmt.Errorf("media %q: bad read rate %q", v, parts[4])
		}
	}
	*m = append(*m, cfg)
	return nil
}

func main() {
	var media mediaFlags
	var (
		masterAddr = flag.String("master", "localhost:9000", "master RPC address")
		node       = flag.String("node", "", "topology node name (default: hostname)")
		rack       = flag.String("rack", "", "rack path, e.g. /rack1")
		dataAddr   = flag.String("data", ":9866", "data transfer listen address")
		netMBps    = flag.Float64("net-mbps", 1250, "advertised network throughput (MB/s)")
		probeMB    = flag.Int64("probe-mb", 8, "startup throughput probe size per media (0 = skip)")
		httpAddr   = flag.String("http", "", "HTTP status/metrics endpoint address (e.g. :9864; empty disables)")
		slowOp     = flag.Duration("slowop", metrics.DefaultSlowOpThreshold, "slow-op log threshold (0 selects the default, negative disables)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -http endpoint")
	)
	flag.Var(&media, "media", "media spec kind:capacityMB[:dir[:writeMBps:readMBps]] (repeatable)")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if len(media) == 0 {
		fmt.Fprintln(os.Stderr, "octopus-worker: at least one -media is required")
		os.Exit(2)
	}
	name := *node
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			fmt.Fprintf(os.Stderr, "octopus-worker: resolving hostname: %v\n", err)
			os.Exit(1)
		}
		name = host
	}
	// Derive cluster-unique media IDs from the node name.
	counts := map[core.StorageTier]int{}
	for i := range media {
		media[i].ID = core.StorageID(fmt.Sprintf("%s:%s%d",
			name, strings.ToLower(media[i].Tier.String()), counts[media[i].Tier]))
		counts[media[i].Tier]++
	}

	w, err := worker.New(worker.Config{
		ID:              core.WorkerID(name),
		Node:            name,
		Rack:            *rack,
		MasterAddr:      *masterAddr,
		DataAddr:        *dataAddr,
		Media:           media,
		NetMBps:         *netMBps,
		ProbeBytes:      *probeMB << 20,
		Logger:          logger,
		SlowOpThreshold: *slowOp,
		Pprof:           *pprofOn,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "octopus-worker: %v\n", err)
		os.Exit(1)
	}
	if *httpAddr != "" {
		bound, err := w.ServeHTTP(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octopus-worker: %v\n", err)
			os.Exit(1)
		}
		logger.Info("http status endpoint", "addr", bound)
	}
	logger.Info("worker running", "id", w.ID(), "data", w.DataAddr(), "media", len(media))

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	w.Close()
}
