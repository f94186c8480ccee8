package namespace

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// BenchmarkRestart measures what a restart costs as the namespace grows:
// the image's bytes, a checkpoint's wall time, open time (image load
// plus edit replay, RecoveryStats), the heap the loaded tree keeps per
// inode, and one ImageBytes call — the namespace read-lock hold of each
// Master.GetImage a Backup Master makes. Files sit a hundred to a
// directory, each with one committed block. Not part of tier-1:
//
//	go test -run '^$' -bench Restart -benchtime 1x ./internal/namespace
func BenchmarkRestart(b *testing.B) {
	for _, files := range []int{1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			dir := b.TempDir()
			inodes := writeRestartImage(b, dir, files)
			b.ResetTimer()
			var st runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&st)
				heap := st.HeapAlloc
				ns, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				runtime.ReadMemStats(&st)
				rec := ns.Recovery()
				t0 := time.Now()
				if err := ns.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := ns.ImageBytes(); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				b.ReportMetric(float64(rec.ImageBytes), "image_bytes")
				b.ReportMetric(float64(rec.ImageLoadNs+rec.ReplayNs)/1e6, "open_ms")
				b.ReportMetric(float64(t1.Sub(t0).Nanoseconds())/1e6, "checkpoint_ms")
				b.ReportMetric(float64(t2.Sub(t1).Nanoseconds())/1e6, "getimage_ms")
				b.ReportMetric(float64(int64(st.HeapAlloc)-int64(heap))/float64(inodes), "heap_B/inode")
				ns.Close()
			}
		})
	}
}

// writeRestartImage checkpoints a namespace of the given number of files
// into dir and returns its inode count.
func writeRestartImage(b *testing.B, dir string, files int) int {
	ns, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	dirs := files / 100
	for d := 0; d < dirs; d++ {
		if err := ns.Mkdir(fmt.Sprintf("/d%05d", d), false, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	for f := 0; f < files; f++ {
		p := fmt.Sprintf("/d%05d/f%07d", f%dirs, f)
		if _, err := ns.Create(p, rv3, 0, false, "bench"); err != nil {
			b.Fatal(err)
		}
		blk, _, err := ns.AddBlock(p)
		if err != nil {
			b.Fatal(err)
		}
		blk.NumBytes = 1 << 20
		if err := ns.Complete(p, &blk); err != nil {
			b.Fatal(err)
		}
	}
	data, err := ns.ImageBytes()
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteFileDurable(filepath.Join(dir, imageFile), data); err != nil {
		b.Fatal(err)
	}
	return 1 + dirs + files
}
