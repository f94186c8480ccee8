package namespace

import (
	"fmt"
	"math/rand"
	"testing"
)

// The namespace line's microbenchmarks, on a volatile namespace (no edit
// log), so they time the tree and its lock alone. Not part of tier-1:
//
//	go test -run '^$' -bench 'List$|Stat$|CreateLargeDir' ./internal/namespace

// sliveShape builds a namespace shaped like the benchmark's slive_mix:
// 20,000 empty files spread at random over 256 directories, about 78
// entries each. It returns the directories and the files.
func sliveShape(b *testing.B) (ns *Namespace, dirs, files []string) {
	ns = benchNS(b)
	for d := 0; d < 256; d++ {
		dirs = append(dirs, fmt.Sprintf("/p/d%03d", d))
		if err := ns.Mkdir(dirs[d], true, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 20000; f++ {
		files = append(files, fmt.Sprintf("%s/f%07d", dirs[rng.Intn(len(dirs))], f))
		benchCreate(b, ns, files[f])
	}
	return ns, dirs, files
}

// BenchmarkList lists one directory of the slive_mix shape.
func BenchmarkList(b *testing.B) {
	ns, dirs, _ := sliveShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.List(dirs[i%len(dirs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStat looks up one file of the slive_mix shape, visiting the
// files in a scattered order: three lookups by name per call.
func BenchmarkStat(b *testing.B) {
	ns, _, files := sliveShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ns.Status(files[i*7919%len(files)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreateLargeDir creates and deletes one file at a random place
// in a directory of 10³ and of 10⁵ entries: a lookup is a binary search,
// an insert or removal moves the child pointers after it, so at 10⁵ the
// moves are the cost.
func BenchmarkCreateLargeDir(b *testing.B) {
	for _, entries := range []int{1e3, 1e5} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			ns := benchNS(b)
			if err := ns.Mkdir("/big", false, "bench"); err != nil {
				b.Fatal(err)
			}
			for f := 0; f < entries; f++ {
				benchCreate(b, ns, fmt.Sprintf("/big/f%07d", 2*f))
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := fmt.Sprintf("/big/f%07d", 2*rng.Intn(entries)+1) // between two entries
				if _, err := ns.Create(p, rv3, 0, false, "bench"); err != nil {
					b.Fatal(err)
				}
				if _, err := ns.Delete(p, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchNS(b *testing.B) *Namespace {
	ns, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ns.Close() })
	return ns
}

// benchCreate creates an empty, closed file, as a client create does.
func benchCreate(b *testing.B, ns *Namespace, p string) {
	if _, err := ns.Create(p, rv3, 0, false, "bench"); err != nil {
		b.Fatal(err)
	}
	if err := ns.Complete(p, nil); err != nil {
		b.Fatal(err)
	}
}
