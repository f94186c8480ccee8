package integration

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// BenchmarkSequentialReadThrottled reads a six-block HDD file whole on
// the default cluster throttled to a quarter of the paper's tier
// speeds, with 0, 1 and 2 blocks of readahead, and reports MiB/s. The
// blocks spread over the workers' HDDs, so readahead overlaps devices
// that a one-block-at-a-time reader uses in turn.
func BenchmarkSequentialReadThrottled(b *testing.B) {
	cfg := DefaultClusterConfig(b.TempDir())
	cfg.Throttle, cfg.ThrottleScale = true, 0.25
	c, err := StartCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(6*int(cfg.BlockSize), 45)
	fs, err := c.Client("")
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteFile("/seq", data, core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		b.Fatal(err)
	}
	got := make([]byte, len(data))
	for _, k := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("readahead=%d", k), func(b *testing.B) {
			fs, err := c.Client("", client.WithReadahead(k))
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				r, err := fs.Open("/seq")
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.ReadFull(r, got)
				r.Close()
				if err != nil || !bytes.Equal(got, data) {
					b.Fatalf("read back: %v", err)
				}
			}
			b.ReportMetric(float64(b.N*len(data))/(1<<20)/time.Since(start).Seconds(), "MiB/s")
		})
	}
}
