// Command octopus-master runs an OctopusFS Primary Master or, with
// -backup, a Backup Master that mirrors a primary and persists
// periodic namespace checkpoints (paper §2.1).
//
// Primary:
//
//	octopus-master -listen :9000 -meta /var/octopusfs/meta
//
// Backup:
//
//	octopus-master -backup -primary host:9000 -meta /var/octopusfs/backup
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/policy"
)

func main() {
	var (
		listen    = flag.String("listen", ":9000", "RPC listen address")
		meta      = flag.String("meta", "", "metadata directory (empty = in-memory only)")
		editSync  = flag.Bool("edit-sync", false, "fsync the edit log after every append (durability over latency)")
		placement = flag.String("placement", "moop", "placement policy: moop, db, lb, ft, tm, rulebased, hdfs, hdfs-ssd")
		retrieval = flag.String("retrieval", "octopus", "retrieval policy: octopus, hdfs")
		useMemory = flag.Bool("use-memory", false, "let the MOOP policy place unspecified replicas in memory")
		blockMB   = flag.Int64("block-mb", 128, "default block size in MB")
		httpAddr  = flag.String("http", "", "HTTP status/metrics endpoint address (e.g. :9870; empty disables)")
		slowOp    = flag.Duration("slowop", metrics.DefaultSlowOpThreshold, "slow-op log threshold (0 selects the default, negative disables)")
		histEvery = flag.Duration("history-interval", 0, "telemetry history sampling interval (0 = default, negative disables)")
		heatHalf  = flag.Duration("heat-half-life", 0, "access-heat decay half-life (0 = default 60s)")
		moverIvl  = flag.Duration("mover-interval", 0, "tier mover pass interval (0 = default 2s, negative disables)")
		moverMax  = flag.Int("mover-max-moves", 0, "max concurrent tier moves (0 = default 4)")
		moverBps  = flag.Int64("mover-mbps", 0, "tier mover bandwidth budget in MB/s (0 = default 64, negative unlimited)")
		moverCool = flag.Duration("mover-cooldown", 0, "per-block cooldown between tier moves (0 = default 30s)")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -http endpoint")
		backup    = flag.Bool("backup", false, "run as a Backup Master")
		primary   = flag.String("primary", "", "primary master address (backup mode)")
		interval  = flag.Duration("checkpoint-interval", 30*time.Second, "backup checkpoint interval")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *backup {
		if *primary == "" {
			fmt.Fprintln(os.Stderr, "octopus-master: -backup requires -primary")
			os.Exit(2)
		}
		b, err := master.NewBackup(master.BackupConfig{
			PrimaryAddr:   *primary,
			CheckpointDir: *meta,
			Interval:      *interval,
			Logger:        logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "octopus-master: %v\n", err)
			os.Exit(1)
		}
		logger.Info("backup master running", "primary", *primary, "checkpoints", *meta)
		waitForSignal()
		b.Close()
		return
	}

	pol, err := placementByName(*placement, *useMemory)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octopus-master: %v\n", err)
		os.Exit(2)
	}
	ret, err := retrievalByName(*retrieval)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octopus-master: %v\n", err)
		os.Exit(2)
	}
	m, err := master.New(master.Config{
		ListenAddr:      *listen,
		MetaDir:         *meta,
		EditLogSync:     *editSync,
		Placement:       pol,
		Retrieval:       ret,
		BlockSize:       *blockMB << 20,
		Logger:          logger,
		SlowOpThreshold: *slowOp,
		HistoryInterval: *histEvery,
		HeatHalfLife:    *heatHalf,
		MoverInterval:   *moverIvl,
		MoverMaxMoves:   *moverMax,
		MoverBytesPerSec: func() int64 {
			if *moverBps == 0 {
				return 0
			}
			if *moverBps < 0 {
				return -1
			}
			return *moverBps << 20
		}(),
		MoverCooldown: *moverCool,
		Pprof:         *pprofOn,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "octopus-master: %v\n", err)
		os.Exit(1)
	}
	if *httpAddr != "" {
		bound, err := m.ServeHTTP(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octopus-master: %v\n", err)
			os.Exit(1)
		}
		logger.Info("http status endpoint", "addr", bound)
	}
	logger.Info("primary master running", "addr", m.Addr(), "placement", pol.Name(), "retrieval", ret.Name())
	waitForSignal()
	m.Close()
}

func placementByName(name string, useMemory bool) (policy.PlacementPolicy, error) {
	switch name {
	case "moop":
		cfg := policy.DefaultMOOPConfig()
		cfg.UseMemory = useMemory
		return policy.NewMOOPPolicy(cfg), nil
	case "db":
		return policy.NewSingleObjectivePolicy(policy.DataBalancing), nil
	case "lb":
		return policy.NewSingleObjectivePolicy(policy.LoadBalancing), nil
	case "ft":
		return policy.NewSingleObjectivePolicy(policy.FaultTolerance), nil
	case "tm":
		return policy.NewSingleObjectivePolicy(policy.ThroughputMax), nil
	case "rulebased":
		return policy.NewRuleBasedPolicy(), nil
	case "hdfs":
		return policy.NewHDFSPolicy(), nil
	case "hdfs-ssd":
		return policy.NewHDFSWithSSDPolicy(), nil
	}
	return nil, fmt.Errorf("unknown placement policy %q", name)
}

func retrievalByName(name string) (policy.RetrievalPolicy, error) {
	switch name {
	case "octopus":
		return policy.NewOctopusRetrievalPolicy(), nil
	case "hdfs":
		return policy.NewHDFSRetrievalPolicy(), nil
	}
	return nil, fmt.Errorf("unknown retrieval policy %q", name)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
