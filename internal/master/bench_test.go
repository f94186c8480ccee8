package master

import (
	"fmt"
	"testing"

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
