package master

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

// benchService builds a master whose file heat map tracks the given
// number of files, all under /tracked.
func benchService(b *testing.B, tracked int) *Service {
	b.Helper()
	svc := &Service{m: testMaster(b)}
	if err := svc.Mkdir(&rpc.MkdirArgs{Path: "/tracked"}, &rpc.MkdirReply{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tracked; i++ {
		benchCreate(b, svc, fmt.Sprintf("/tracked/f%d", i))
	}
	return svc
}

func benchCreate(b *testing.B, svc *Service, path string) {
	b.Helper()
	if err := svc.Create(&rpc.CreateArgs{Path: path, RepVector: core.ReplicationVectorFromFactor(1)}, &rpc.CreateReply{}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServiceRename and BenchmarkServiceDelete time the two handlers
// whose heat bookkeeping used to scan every tracked file: the cost at
// 16,384 tracked files (the file heat map's capacity) must be the cost at
// none.
func BenchmarkServiceRename(b *testing.B) {
	for _, tracked := range []int{0, 16384} {
		b.Run(fmt.Sprintf("tracked=%d", tracked), func(b *testing.B) {
			svc := benchService(b, tracked)
			paths := [2]string{"/x", "/y"}
			benchCreate(b, svc, paths[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Rename(&rpc.RenameArgs{Src: paths[i%2], Dst: paths[(i+1)%2]}, &rpc.RenameReply{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkServiceDelete(b *testing.B) {
	for _, tracked := range []int{0, 16384} {
		b.Run(fmt.Sprintf("tracked=%d", tracked), func(b *testing.B) {
			svc := benchService(b, tracked)
			for i := 0; i < b.N; i++ {
				benchCreate(b, svc, fmt.Sprintf("/victim%d", i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Delete(&rpc.DeleteArgs{Path: fmt.Sprintf("/victim%d", i)}, &rpc.DeleteReply{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetBlockLocations locates a 4-block file whose blocks each
// have one memory, one SSD and one HDD replica (vector <M0,S1,H2>) on
// four workers, for a reader off the cluster: the block map lookup, the
// retrieval order and the reply's construction. Its allocs/op is the
// master's share of a whole-file read's garbage.
func BenchmarkGetBlockLocations(b *testing.B) {
	// The workers never beat again, so they must not expire mid-run.
	m := testMaster(b, func(c *Config) { c.WorkerTimeout = time.Hour })
	for i := range 4 {
		id := fmt.Sprintf("w%d", i)
		registerFakeWorker(b, m, id, fmt.Sprintf("/r%d", i%2),
			mediaStat(id+":mem0", core.TierMemory, 1<<30, 1000, 2000),
			mediaStat(id+":ssd0", core.TierSSD, 4<<30, 400, 500),
			mediaStat(id+":hdd0", core.TierHDD, 8<<30, 120, 170),
		)
	}
	svc := &Service{m: m}
	const path = "/located"
	if err := svc.Create(&rpc.CreateArgs{Path: path, RepVector: core.NewReplicationVector(1, 1, 1, 0, 0)}, &rpc.CreateReply{}); err != nil {
		b.Fatal(err)
	}
	for range 4 {
		var reply rpc.AddBlockReply
		if err := svc.AddBlock(&rpc.AddBlockArgs{Path: path}, &reply); err != nil {
			b.Fatal(err)
		}
		blk := reply.Located.Block
		blk.NumBytes = 4 << 20
		for _, loc := range reply.Located.Locations {
			received(b, m, loc.Worker, loc.Storage, blk)
		}
		if err := svc.CommitBlock(&rpc.CommitBlockArgs{Path: path, Block: blk}, &rpc.CommitBlockReply{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Complete(&rpc.CompleteArgs{Path: path}, &rpc.CompleteReply{}); err != nil {
		b.Fatal(err)
	}
	args := &rpc.GetBlockLocationsArgs{Path: path, Length: -1}
	var reply rpc.GetBlockLocationsReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply = rpc.GetBlockLocationsReply{}
		if err := svc.GetBlockLocations(args, &reply); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(reply.Blocks) != 4 {
		b.Fatalf("%d located blocks, want 4", len(reply.Blocks))
	}
	for _, lb := range reply.Blocks {
		if len(lb.Locations) != 3 {
			b.Fatalf("block %s has %d locations, want 3", lb.Block.ID, len(lb.Locations))
		}
	}
}

// BenchmarkGetFileInfo stats one file with a request ID in the header,
// as every client call carries one, so the op's trace path runs. The ID
// falls outside the trace store's 10% sample and the stat is far below
// the slow threshold, as nine ops in ten are: its allocs/op is what an
// audited op whose span nobody keeps costs beyond the namespace lookup.
func BenchmarkGetFileInfo(b *testing.B) {
	svc := &Service{m: testMaster(b)}
	const path = "/stat"
	benchCreate(b, svc, path)
	args := &rpc.GetFileInfoArgs{Path: path}
	args.ReqID = "0123456789abcdef"
	if svc.m.traces.Sampled(args.ReqID) {
		b.Fatalf("trace %s is sampled", args.ReqID)
	}
	var reply rpc.GetFileInfoReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.GetFileInfo(args, &reply); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if reply.Status.Path != path {
		b.Fatalf("status of %q, want %q", reply.Status.Path, path)
	}
}
