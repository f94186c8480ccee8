package master

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/namespace"
	"repro/internal/rpc"
)

// BackupConfig configures a Backup Master (paper §2.1).
type BackupConfig struct {
	// PrimaryAddr is the primary master's RPC endpoint.
	PrimaryAddr string

	// CheckpointDir receives the periodic fsimage checkpoints from
	// which a failed primary can restart.
	CheckpointDir string

	// Interval paces checkpoint pulls.
	Interval time.Duration

	// Logger receives operational logs; nil discards them.
	Logger *slog.Logger
}

// Backup is a Backup Master: it maintains an up-to-date in-memory
// image of the primary's namespace and periodically persists
// checkpoints so the system can restart from the most recent one upon
// a primary failure (paper §2.1).
type Backup struct {
	cfg BackupConfig
	ns  *namespace.Namespace

	primary *rpc.MasterClient

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewBackup starts a Backup Master syncing from cfg.PrimaryAddr.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("backup: creating checkpoint dir: %w", err)
		}
	}
	ns, err := namespace.Open("")
	if err != nil {
		return nil, err
	}
	b := &Backup{cfg: cfg, ns: ns, primary: rpc.NewMasterClient(cfg.PrimaryAddr), done: make(chan struct{})}
	if err := b.syncOnce(); err != nil {
		ns.Close()
		return nil, err
	}
	b.wg.Add(1)
	go b.loop()
	return b, nil
}

// Namespace exposes the backup's standby image (for take-over and
// tests).
func (b *Backup) Namespace() *namespace.Namespace { return b.ns }

// Close stops the backup.
func (b *Backup) Close() error {
	b.once.Do(func() { close(b.done) })
	b.wg.Wait()
	b.primary.Close()
	return b.ns.Close()
}

func (b *Backup) loop() {
	defer b.wg.Done()
	ticker := time.NewTicker(b.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-ticker.C:
			if err := b.syncOnce(); err != nil {
				b.cfg.Logger.Warn("backup sync failed", "err", err)
			}
		}
	}
}

// syncOnce pulls the primary's namespace image, refreshes the standby
// copy, and persists a checkpoint file.
func (b *Backup) syncOnce() error {
	var reply rpc.ImageReply
	if err := b.primary.Call("Master.GetImage", &rpc.ImageArgs{}, &reply); err != nil {
		return err
	}
	if err := b.ns.LoadImageBytes(reply.Image); err != nil {
		return err
	}
	if b.cfg.CheckpointDir != "" {
		if err := namespace.WriteFileDurable(filepath.Join(b.cfg.CheckpointDir, "fsimage"), reply.Image); err != nil {
			return fmt.Errorf("backup: writing checkpoint: %w", err)
		}
	}
	return nil
}
