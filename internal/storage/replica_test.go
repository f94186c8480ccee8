package storage

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (send, recv *net.TCPConn) {
	t.Helper()
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *net.TCPConn, 1)
	go func() {
		c, _ := ln.AcceptTCP() // nil on failure, refused below
		accepted <- c
	}()
	send, err = net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	recv = <-accepted
	if recv == nil {
		t.Fatal("loopback accept failed")
	}
	t.Cleanup(func() { send.Close(); recv.Close() })
	return send, recv
}

// TestReplicaSendRuns sends runs of whole chunks of a replica over
// loopback TCP, from memory and from disk, unthrottled and at two read
// rates: the receiver gets exactly the run's bytes; each call moves
// whole chunks, at least one and no more than the media's pacing burst
// (the whole run when unthrottled); and a throttled run reaches the
// receiver no sooner than all but its last step's pacing allows.
func TestReplicaSendRuns(t *testing.T) {
	const C = core.ChunkSize
	data := randomData(16*C+100, 7)
	b := core.Block{ID: 1, GenStamp: 1, NumBytes: int64(len(data))}
	runs := []struct {
		name string
		off  int64
		n    int
	}{
		{"single", C, C},
		{"multi", C, 3 * C},
		{"mid", 5 * C, 8 * C},
		{"whole", 0, len(data)},
	}
	for _, tier := range []core.StorageTier{core.TierMemory, core.TierHDD} {
		// 64 MB/s sends one chunk per call, 400 MB/s six.
		for _, mbps := range []float64{0, 64, 400} {
			m := testMedia(t, tier, 64<<20, 0, mbps)
			if _, err := m.Put(b, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			burst := m.ReadLimit().Burst()
			for _, run := range runs {
				t.Run(fmt.Sprintf("%s/%gMBps/%s", tier, mbps, run.name), func(t *testing.T) {
					send, recv := tcpPair(t)
					r, err := m.OpenReplica(b, nil)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					step := r.step()
					if step%C != 0 || step < C || step > max(C, burst) || (mbps == 0 && step < len(data)) {
						t.Fatalf("a step of %d bytes with a %d-byte burst", step, burst)
					}
					// Idle past idleReset, so the pacing schedule
					// restarts at this run.
					time.Sleep(2 * idleReset)
					got := make([]byte, run.n)
					arrived := make(chan time.Time, 1)
					go func() {
						io.ReadFull(recv, got) // a short read shows in the comparison
						arrived <- time.Now()
					}()
					start := time.Now()
					if err := r.Send(send, run.off, run.n); err != nil {
						t.Fatal(err)
					}
					elapsed := (<-arrived).Sub(start)
					if !bytes.Equal(got, data[run.off:run.off+int64(run.n)]) {
						t.Fatalf("received bytes differ from the replica's [%d,+%d)", run.off, run.n)
					}
					if mbps > 0 {
						floor := time.Duration(float64(run.n-step)/(mbps*1e6)*float64(time.Second)) - minSleep
						if elapsed < floor {
							t.Errorf("%d bytes at %g MB/s arrived in %v, want at least %v", run.n, mbps, elapsed, floor)
						}
					}
				})
			}
		}
	}
}
