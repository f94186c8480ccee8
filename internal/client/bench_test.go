package client

import (
	"fmt"
	"testing"

	"repro/internal/master"
)

// createCloseRPCs are the master methods an empty file's create and
// close can send: the three of the operation and the telemetry Report.
var createCloseRPCs = []string{"Create", "GetFileInfo", "Complete", "Report"}

// BenchmarkCreateClose creates and closes empty files against an
// in-process master over loopback, the namespace-only write of the
// S-Live mix, and reports the master round trips each one costs.
// Telemetry ships in batches, so the figure is 3 plus at most one
// Report per 64 files.
func BenchmarkCreateClose(b *testing.B) {
	m, err := master.New(master.Config{ListenAddr: "127.0.0.1:0", HistoryInterval: -1, MoverInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	fs, err := Dial(m.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Mkdir("/bench", false); err != nil {
		b.Fatal(err)
	}
	rpcs := func() (n float64) {
		for _, method := range createCloseRPCs {
			n += fs.metrics.rpcs.With(method).Value()
		}
		return n
	}
	before := rpcs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		createClose(b, fs, fmt.Sprintf("/bench/f%d", i), nil)
	}
	b.StopTimer()
	b.ReportMetric((rpcs()-before)/float64(b.N), "rpcs/op")
}
