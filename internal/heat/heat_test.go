package heat

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

const ns = int64(time.Second)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestDecayClosedForm checks the decay math against hand-computed
// closed-form values: value(t) = value(t0) * 2^(-(t-t0)/half).
func TestDecayClosedForm(t *testing.T) {
	half := 10 * time.Second
	st := Stat{Read: Score{Ops: 8, Bytes: 800}, Write: Score{Ops: 4, Bytes: 400}, LastNs: 0}

	cases := []struct {
		atNs    int64
		wantOps float64 // expected Read.Ops
	}{
		{0, 8},                        // no elapsed time, no decay
		{-5 * ns, 8},                  // clock skew backwards must not inflate
		{10 * ns, 4},                  // one half-life
		{20 * ns, 2},                  // two half-lives
		{30 * ns, 1},                  // three half-lives
		{5 * ns, 8 * math.Exp2(-0.5)}, // fractional half-life
	}
	for _, c := range cases {
		got := st.At(c.atNs, half)
		if !almostEqual(got.Read.Ops, c.wantOps) {
			t.Errorf("At(%d): Read.Ops = %v, want %v", c.atNs, got.Read.Ops, c.wantOps)
		}
		// Bytes and writes decay by the same factor.
		f := c.wantOps / 8
		if !almostEqual(got.Read.Bytes, 800*f) || !almostEqual(got.Write.Ops, 4*f) || !almostEqual(got.Write.Bytes, 400*f) {
			t.Errorf("At(%d): got %+v, want uniform factor %v", c.atNs, got, f)
		}
	}
}

// TestMapAddDecaysBeforeFold verifies Add decays the stored value to
// the fold instant before accumulating: add 10 ops at t=0, then 1 op
// at t=half ⇒ 10/2 + 1 = 6.
func TestMapAddDecaysBeforeFold(t *testing.T) {
	half := 10 * time.Second
	m := NewMap[string](half, 0)
	m.Add("/f", Read, 10, 1000, 0)
	m.Add("/f", Read, 1, 100, 10*ns)
	st, ok := m.Get("/f", 10*ns)
	if !ok {
		t.Fatal("key missing")
	}
	if !almostEqual(st.Read.Ops, 6) {
		t.Errorf("Read.Ops = %v, want 6", st.Read.Ops)
	}
	if !almostEqual(st.Read.Bytes, 600) {
		t.Errorf("Read.Bytes = %v, want 600", st.Read.Bytes)
	}
	// Query another half-life later without folding: 6/2 = 3.
	st, _ = m.Get("/f", 20*ns)
	if !almostEqual(st.Read.Ops, 3) {
		t.Errorf("Read.Ops at 2×half = %v, want 3", st.Read.Ops)
	}
}

func TestMapSnapshotOrderAndDirections(t *testing.T) {
	m := NewMap[string](time.Minute, 0)
	m.Add("/cold", Read, 1, 10, 0)
	m.Add("/hot", Read, 5, 50, 0)
	m.Add("/hot", Write, 3, 30, 0)
	m.Add("/warm", Write, 4, 40, 0)
	snap := m.Snapshot(0)
	if len(snap) != 3 {
		t.Fatalf("len = %d, want 3", len(snap))
	}
	if snap[0].Key != "/hot" || snap[1].Key != "/warm" || snap[2].Key != "/cold" {
		t.Errorf("order = %v,%v,%v", snap[0].Key, snap[1].Key, snap[2].Key)
	}
	if h := snap[0].Stat.Heat(); !almostEqual(h, 8) {
		t.Errorf("hot heat = %v, want 8 (read+write ops)", h)
	}
}

func TestMapCapacityEvictsColdest(t *testing.T) {
	m := NewMap[int](time.Minute, 8)
	for i := 0; i < 8; i++ {
		// Key i gets i+1 ops, so 0 is the coldest.
		m.Add(i, Read, int64(i+1), 0, 0)
	}
	m.Add(100, Read, 50, 0, 0) // forces eviction of the coldest eighth (=1 entry)
	if _, ok := m.Get(0, 0); ok {
		t.Error("coldest key 0 should have been evicted")
	}
	if _, ok := m.Get(100, 0); !ok {
		t.Error("new key 100 missing after eviction")
	}
	if _, ok := m.Get(7, 0); !ok {
		t.Error("hot key 7 must survive eviction")
	}
}

func TestCollectorDrain(t *testing.T) {
	c := NewCollector()
	c.Touch(7, Read, 100)
	c.Touch(7, Read, 50)
	c.Touch(7, Write, 25)
	c.Touch(3, Write, 10)
	got := c.Drain()
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].Block != 3 || got[1].Block != 7 {
		t.Fatalf("order = %v,%v, want 3,7", got[0].Block, got[1].Block)
	}
	d := got[1]
	if d.ReadOps != 2 || d.ReadBytes != 150 || d.WriteOps != 1 || d.WriteBytes != 25 {
		t.Errorf("block 7 delta = %+v", d)
	}
	if again := c.Drain(); len(again) != 0 {
		t.Errorf("second drain = %v, want empty", again)
	}
}

func TestCollectorRestore(t *testing.T) {
	c := NewCollector()
	c.Touch(9, Read, 40)
	drained := c.Drain()
	c.Restore(drained)
	c.Touch(9, Read, 2)
	got := c.Drain()
	if len(got) != 1 || got[0].ReadOps != 2 || got[0].ReadBytes != 42 {
		t.Fatalf("after restore = %+v, want 2 ops / 42 bytes", got)
	}
}

// TestCollectorForget: Forget is the only way a cell leaves the
// collector (the worker calls it when it deletes the block); idle
// drains never drop one, and a touch after Forget starts afresh.
func TestCollectorForget(t *testing.T) {
	c := NewCollector()
	c.Touch(5, Read, 1)
	for i := 0; i < 100; i++ {
		c.Drain()
	}
	if _, ok := c.cells.Load(core.BlockID(5)); !ok {
		t.Error("idle cell dropped without Forget")
	}
	c.Touch(5, Read, 2)
	c.Forget(5)
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("drain after Forget = %+v", got)
	}
	c.Touch(5, Read, 3)
	got := c.Drain()
	if len(got) != 1 || got[0].ReadBytes != 3 {
		t.Fatalf("post-forget drain = %+v", got)
	}
}

// TestCollectorConcurrent hammers Touch from many goroutines while
// Drain runs concurrently, then checks no operation was lost (drains
// plus the residual must equal the touches). Run under -race in CI.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	const goroutines = 8
	const perG = 2000
	var drained []Delta
	stop := make(chan struct{})
	drainerDone := make(chan struct{})
	go func() {
		defer close(drainerDone)
		for {
			drained = append(drained, c.Drain()...)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				c.Touch(core.BlockID(i%4), Read, 1)
				c.Touch(core.BlockID(i%4), Write, 2)
			}
		}()
	}
	// Wait for the writers, then stop the drainer and take the rest.
	writers.Wait()
	close(stop)
	<-drainerDone
	drained = append(drained, c.Drain()...)

	var readOps, writeBytes int64
	for _, d := range drained {
		readOps += int64(d.ReadOps)
		writeBytes += d.WriteBytes
	}
	wantOps := int64(goroutines * perG)
	if readOps != wantOps {
		t.Errorf("read ops = %d, want %d", readOps, wantOps)
	}
	if writeBytes != 2*wantOps {
		t.Errorf("write bytes = %d, want %d", writeBytes, 2*wantOps)
	}
}

// TestMapConcurrent exercises Add/Snapshot/Get concurrently; mainly a
// race-detector target.
func TestMapConcurrent(t *testing.T) {
	m := NewMap[core.BlockID](time.Minute, 128)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Add(core.BlockID(i%32), Kind(i%2), 1, 8, int64(i)*ns)
				if i%50 == 0 {
					m.Snapshot(int64(i) * ns)
					m.Get(core.BlockID(i%32), int64(i)*ns)
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() == 0 {
		t.Error("map unexpectedly empty")
	}
}
