package namespace

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// modelFS is a trivial reference model of the namespace: a flat map
// from path to kind. The real namespace must agree with it after any
// sequence of operations.
type modelFS struct {
	dirs  map[string]bool
	files map[string]int64 // path -> length
}

func newModel() *modelFS {
	return &modelFS{dirs: map[string]bool{"/": true}, files: map[string]int64{}}
}

func (m *modelFS) mkdirAll(p string) {
	parts := SplitPath(p)
	cur := ""
	for _, part := range parts {
		cur = cur + "/" + part
		m.dirs[cur] = true
	}
}

func (m *modelFS) create(p string, length int64) bool {
	if m.dirs[p] || m.files[p] != 0 {
		return false
	}
	if _, exists := m.files[p]; exists {
		return false
	}
	if !m.dirs[ParentPath(p)] {
		return false
	}
	m.files[p] = length
	return true
}

func (m *modelFS) deleteTree(p string) {
	delete(m.files, p)
	delete(m.dirs, p)
	for f := range m.files {
		if IsAncestor(p, f) {
			delete(m.files, f)
		}
	}
	for d := range m.dirs {
		if IsAncestor(p, d) {
			delete(m.dirs, d)
		}
	}
}

func (m *modelFS) rename(src, dst string) bool {
	if src == "/" || IsAncestor(src, dst) {
		return false
	}
	if m.dirs[dst] || hasFile(m, dst) {
		return false
	}
	if !m.dirs[ParentPath(dst)] {
		return false
	}
	if l, ok := m.files[src]; ok {
		delete(m.files, src)
		m.files[dst] = l
		return true
	}
	if m.dirs[src] {
		// Move the whole subtree.
		moved := map[string]int64{}
		for f, l := range m.files {
			if IsAncestor(src, f) {
				moved[dst+strings.TrimPrefix(f, src)] = l
				delete(m.files, f)
			}
		}
		for f, l := range moved {
			m.files[f] = l
		}
		movedDirs := []string{}
		for d := range m.dirs {
			if IsAncestor(src, d) {
				movedDirs = append(movedDirs, d)
			}
		}
		for _, d := range movedDirs {
			delete(m.dirs, d)
			m.dirs[dst+strings.TrimPrefix(d, src)] = true
		}
		return true
	}
	return false
}

func hasFile(m *modelFS, p string) bool {
	_, ok := m.files[p]
	return ok
}

// children returns the full paths of the model's entries directly
// under dir, in name order.
func (m *modelFS) children(dir string) []string {
	var out []string
	for p := range m.dirs {
		if p != Separator && ParentPath(p) == dir {
			out = append(out, p)
		}
	}
	for p := range m.files {
		if ParentPath(p) == dir {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// checkList asserts that List(dir) returns exactly the model's children
// of dir, as full paths in strictly increasing name order.
func checkList(t *testing.T, ns *Namespace, m *modelFS, dir, when string) {
	t.Helper()
	infos, err := ns.List(dir)
	if err != nil {
		t.Fatalf("%s: list %s: %v", when, dir, err)
	}
	got := make([]string, len(infos))
	for i, info := range infos {
		got[i] = info.Path
		if i > 0 && got[i-1] >= got[i] {
			t.Fatalf("%s: list %s: %s then %s, not strictly in name order", when, dir, got[i-1], got[i])
		}
		if info.IsDir != m.dirs[info.Path] {
			t.Fatalf("%s: list %s: %s has IsDir %v, model %v", when, dir, info.Path, info.IsDir, m.dirs[info.Path])
		}
	}
	if want := m.children(dir); !slices.Equal(got, want) {
		t.Fatalf("%s: list %s = %v, model %v", when, dir, got, want)
	}
}

// checkLookup asserts that every directory finds each of its children
// by name: the order a walk sees is the order a lookup searches.
func checkLookup(t *testing.T, ns *Namespace, when string) {
	t.Helper()
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	var walk func(path string, n *INode)
	walk = func(path string, n *INode) {
		for _, c := range n.Children {
			if got := n.child(c.Name); got != c {
				t.Fatalf("%s: %s does not find its child %q by lookup", when, path, c.Name)
			}
			walk(JoinPath(path, c.Name), c)
		}
	}
	walk(Separator, ns.root)
}

// checkIdentity asserts the file-identity invariants and returns the
// path → ID map it read: IDs are non-zero and unique, the ID index holds
// exactly the files in the tree and the open index exactly those under
// construction, and path → ID → path round-trips both through the walk
// and through the ID an op hands back.
func checkIdentity(t *testing.T, ns *Namespace, when string) map[string]FileID {
	t.Helper()
	ids := map[string]FileID{}
	owner := map[FileID]string{}
	ns.ForEachFile(func(id FileID, p string, _ []core.Block, _ core.ReplicationVector) {
		if id == 0 {
			t.Fatalf("%s: %s has no ID", when, p)
		}
		if other, dup := owner[id]; dup {
			t.Fatalf("%s: %s and %s share ID %d", when, other, p, id)
		}
		owner[id], ids[p] = p, id
	})
	if len(ns.files) != len(ids) {
		t.Fatalf("%s: ID index holds %d files, tree has %d", when, len(ns.files), len(ids))
	}
	for id, n := range ns.files {
		if (ns.open[id] == n) != n.UnderConstruction {
			t.Fatalf("%s: open index disagrees with %s (under construction: %v)", when, owner[id], n.UnderConstruction)
		}
	}
	for id := range ns.open {
		if ns.files[id] == nil {
			t.Fatalf("%s: open index keeps unlinked file %d", when, id)
		}
	}
	for p, id := range ids {
		if got := ns.PathOf(id); got != p {
			t.Fatalf("%s: PathOf(%d) = %q, want %q", when, id, got, p)
		}
		if _, _, _, got, err := ns.FileBlocks(p); err != nil || got != id {
			t.Fatalf("%s: FileBlocks(%s) handed back ID %d (err %v), want %d", when, p, got, err, id)
		}
	}
	return ids
}

// TestNamespaceAgainstModel applies a long random operation sequence
// to both the real namespace and the flat reference model, checking the
// identity invariants and the listing of a random directory after every
// op, then verifies they contain exactly the same tree — before and
// after a checkpoint and reopen, after which every directory lists as
// the model's and finds each of its children by lookup.
func TestNamespaceAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	listRng := rand.New(rand.NewSource(7)) // apart, so the op sequence stays as seeded
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ns.Close() }()
	model := newModel()
	ids := map[string]FileID{}

	names := []string{"a", "b", "c", "d"}
	randPath := func(depth int) string {
		var sb strings.Builder
		for i := 0; i < depth; i++ {
			sb.WriteString("/")
			sb.WriteString(names[rng.Intn(len(names))])
		}
		if sb.Len() == 0 {
			return "/"
		}
		return sb.String()
	}

	for op := 0; op < 2000; op++ {
		switch rng.Intn(5) {
		case 0: // mkdir -p
			p := randPath(1 + rng.Intn(3))
			if p == "/" {
				continue
			}
			err := ns.Mkdir(p, true, "u")
			// mkdir -p fails only if a file is in the way.
			blocked := false
			probe := p
			for probe != "/" {
				if hasFile(model, probe) {
					blocked = true
					break
				}
				probe = ParentPath(probe)
			}
			if blocked {
				if err == nil {
					t.Fatalf("op %d: mkdir %s succeeded over a file", op, p)
				}
			} else if err != nil {
				t.Fatalf("op %d: mkdir %s: %v", op, p, err)
			} else {
				model.mkdirAll(p)
			}
		case 1: // create + complete a small file
			p := randPath(1 + rng.Intn(3))
			if p == "/" {
				continue
			}
			length := int64(rng.Intn(1000) + 1)
			want := model.create(p, length)
			_, err := ns.Create(p, rv3, 1024, false, "u")
			if want != (err == nil) {
				t.Fatalf("op %d: create %s: model=%v real err=%v", op, p, want, err)
			}
			if err == nil {
				b, _, err := ns.AddBlock(p)
				if err != nil {
					t.Fatalf("op %d: addblock %s: %v", op, p, err)
				}
				b.NumBytes = length
				if err := ns.Complete(p, &b); err != nil {
					t.Fatalf("op %d: complete %s: %v", op, p, err)
				}
			}
		case 2: // recursive delete
			p := randPath(1 + rng.Intn(3))
			if p == "/" {
				continue
			}
			exists := model.dirs[p] || hasFile(model, p)
			_, err := ns.Delete(p, true)
			if exists != (err == nil) {
				t.Fatalf("op %d: delete %s: model exists=%v real err=%v", op, p, exists, err)
			}
			if err == nil {
				model.deleteTree(p)
			}
		case 3: // rename
			src := randPath(1 + rng.Intn(3))
			dst := randPath(1 + rng.Intn(3))
			if src == "/" || dst == "/" {
				continue
			}
			srcExists := model.dirs[src] || hasFile(model, src)
			want := srcExists && model.rename2Check(dst, src)
			err := ns.Rename(src, dst)
			if want != (err == nil) {
				t.Fatalf("op %d: rename %s -> %s: model=%v real err=%v", op, src, dst, err == nil, err)
			}
			if err == nil {
				model.rename(src, dst)
				// Every file that moved kept its ID.
				after := checkIdentity(t, ns, "after rename")
				for p, id := range ids {
					if IsAncestor(src, p) && after[dst+strings.TrimPrefix(p, src)] != id {
						t.Fatalf("op %d: rename %s -> %s gave %s a new ID", op, src, dst, p)
					}
				}
			}
		case 4: // status check on a random path
			p := randPath(1 + rng.Intn(3))
			info, err := ns.Status(p)
			switch {
			case hasFile(model, p):
				if err != nil || info.IsDir {
					t.Fatalf("op %d: status %s: want file, got %+v %v", op, p, info, err)
				}
				if info.Length != model.files[p] {
					t.Fatalf("op %d: status %s length %d, model %d", op, p, info.Length, model.files[p])
				}
			case model.dirs[p] || p == "/":
				if err != nil || !info.IsDir {
					t.Fatalf("op %d: status %s: want dir, got %+v %v", op, p, info, err)
				}
			default:
				if err == nil {
					t.Fatalf("op %d: status %s: want error, got %+v", op, p, info)
				}
			}
		}
		ids = checkIdentity(t, ns, "after op "+strconv.Itoa(op))
		dirs := make([]string, 0, len(model.dirs))
		for d := range model.dirs {
			dirs = append(dirs, d)
		}
		sort.Strings(dirs)
		checkList(t, ns, model, dirs[listRng.Intn(len(dirs))], "after op "+strconv.Itoa(op))
	}

	// Before the checkpoint, add what the random ops do not make: open
	// files, a file of 8,192 blocks of 1 GiB, whose inode frame is past
	// the edit log's 64 KiB bound, with a vector of its own, and a quota
	// below its directory's usage — apply allows that state, so the image
	// loader must not refuse it.
	if err := ns.Mkdir("/q", false, "quota-owner"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, ns, "/q/f", rv3, 100)
	if err := ns.SetQuota("/q", core.TierUnspecified, 1); err != nil {
		t.Fatal(err)
	}
	model.dirs["/q"], model.files["/q/f"] = true, 100
	for _, p := range []string{"/open", "/q/open"} {
		if _, err := ns.Create(p, rv3, 0, false, "writer"); err != nil {
			t.Fatal(err)
		}
		model.files[p] = 0
	}
	if _, _, err := ns.AddBlock("/open"); err != nil {
		t.Fatal(err)
	}
	big := core.NewReplicationVector(1, 0, 2, 0, 0)
	if _, err := ns.Create("/big", big, 1<<30, false, "u"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8192; i++ {
		b, _, err := ns.AddBlock("/big")
		if err != nil {
			t.Fatal(err)
		}
		b.NumBytes = 1 << 30
		if err := ns.CommitBlock("/big", b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Complete("/big", nil); err != nil {
		t.Fatal(err)
	}
	model.files["/big"] = 8192 << 30

	// Final full-tree comparison, on the live tree and on the one a
	// checkpoint and reopen rebuild (with fresh IDs: they are not stored),
	// which must also match it inode by inode.
	var modelFiles []string
	for f := range model.files {
		modelFiles = append(modelFiles, f)
	}
	sort.Strings(modelFiles)
	compare := func(when string) {
		var realFiles []string
		for p := range checkIdentity(t, ns, when) {
			realFiles = append(realFiles, p)
		}
		sort.Strings(realFiles)
		if !slices.Equal(realFiles, modelFiles) {
			t.Fatalf("%s: trees diverge: real %d files %v vs model %d files %v",
				when, len(realFiles), realFiles, len(modelFiles), modelFiles)
		}
	}
	compare("final")
	want := fullState(t, ns)
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, imageFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, clean := frameWalk(image[len(imageMagic):], maxEditPayload, func([]byte) bool { return true }); clean {
		t.Fatalf("no inode frame of the %d-byte image is over the edit log's bound", len(image))
	}
	ns.Close()
	if ns, err = Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	compare("after checkpoint and reopen")
	for d := range model.dirs {
		checkList(t, ns, model, d, "after checkpoint and reopen")
	}
	checkLookup(t, ns, "after checkpoint and reopen")
	if got := fullState(t, ns); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("after checkpoint and reopen, inode %d differs:\n got %.300s\nwant %.300s", i, g[i], w[i])
			}
		}
		t.Fatalf("after checkpoint and reopen: %d inode lines, want %d", len(g), len(w))
	}
}

// rename2Check mirrors the real namespace's rename preconditions on
// the destination side.
func (m *modelFS) rename2Check(dst, src string) bool {
	if IsAncestor(src, dst) {
		return false
	}
	if m.dirs[dst] || hasFile(m, dst) {
		return false
	}
	return m.dirs[ParentPath(dst)]
}
