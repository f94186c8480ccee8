package blockmgmt

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// slot names one (block, storage) pair; storages are "<worker>:<medium>".
type slot struct {
	b core.BlockID
	s core.StorageID
}

func (k slot) worker() core.WorkerID { return core.WorkerID(strings.SplitN(string(k.s), ":", 2)[0]) }

// oracle restates the replica life-cycle on one flat map: what state the
// master should hold for every slot after any sequence of transitions.
type oracle struct {
	recs  map[slot]*orec
	known map[core.BlockID]bool
	tick  int64
}

type orec struct {
	state    replicaState
	omitted  bool
	pipeline bool
	expires  int64
	retire   core.StorageID
}

func (o *oracle) schedule(k slot, r orec) bool {
	if !o.known[k.b] || o.recs[k] != nil {
		return false
	}
	r.state = pendingAdd
	o.recs[k] = &r
	return true
}

func (o *oracle) count(b core.BlockID, st replicaState) (n int) {
	for k, r := range o.recs {
		if k.b == b && r.state == st {
			n++
		}
	}
	return n
}

// confirm returns the slots to delete.
func (o *oracle) confirm(k slot) []slot {
	r := o.recs[k]
	switch {
	case !o.known[k.b]:
		return []slot{k}
	case r == nil:
		o.recs[k] = &orec{state: live}
	case r.state == pendingDelete:
		r.omitted = false
		return []slot{k}
	case r.state == live:
		r.omitted = false
	default:
		victim := slot{k.b, r.retire}
		*r = orec{state: live}
		if v := o.recs[victim]; v != nil && v.state == live {
			v.state = pendingDelete
			return []slot{victim}
		}
	}
	return nil
}

func (o *oracle) retire(k slot) []slot {
	if r := o.recs[k]; r != nil && r.state == live && o.count(k.b, live) >= 2 {
		r.state = pendingDelete
		return []slot{k}
	}
	return nil
}

func (o *oracle) report(w core.WorkerID, listed []slot) (deletes []slot) {
	in := make(map[slot]bool)
	for _, k := range listed {
		deletes = append(deletes, o.confirm(k)...)
		in[k] = true
	}
	o.dropWhere(func(k slot, r *orec) bool {
		if k.worker() != w || in[k] || r.state == pendingAdd {
			return false
		}
		gone := r.omitted
		r.omitted = true
		return gone
	})
	return deletes
}

func (o *oracle) dropWhere(match func(slot, *orec) bool) {
	for k, r := range o.recs {
		if match(k, r) {
			delete(o.recs, k)
		}
	}
}

// world is what the master cannot see: worker disks, commands in
// flight, and the last listing each worker sent. It grants the two
// timing assumptions the design rests on, and no more:
//
//   - a block report is less than one report interval late, so a stale
//     listing (the disk as of the worker's previous report) is always
//     followed by a fresh one;
//   - a delete command runs before its worker generates its second
//     report after the command was queued (commands ride the next
//     heartbeat and run at once); copies may land arbitrarily late.
//
// Delete acknowledgements carry no weight in the design, so the model
// has none.
type world struct {
	t     *testing.T
	rng   *rand.Rand
	m     *Manager
	o     *oracle
	alive map[core.WorkerID]bool
	disk  map[slot]bool
	// copies and deletes are commands handed out and not yet run;
	// overdue holds the deletes that survived one report of their worker.
	copies, deletes, overdue []slot
	pipeline                 map[slot]bool           // copies that need no source (client writes)
	targets                  map[core.BlockID][]slot // each block's write pipeline
	snap                     map[core.WorkerID][]slot
	mustFresh                map[core.WorkerID]bool
	nextBlock                core.BlockID
}

var modelWorkers = []core.WorkerID{"w1", "w2", "w3"}

func (w *world) randSlot(b core.BlockID) slot {
	media := []string{"hdd0", "mem0"}
	return slot{b, core.StorageID(fmt.Sprintf("%s:%s", modelWorkers[w.rng.Intn(len(modelWorkers))], media[w.rng.Intn(2)]))}
}

func (w *world) randBlock() core.BlockID { return core.BlockID(1 + w.rng.Intn(int(w.nextBlock))) }

func replicaOf(k slot) Replica {
	tier := core.TierHDD
	if strings.HasSuffix(string(k.s), "mem0") {
		tier = core.TierMemory
	}
	return Replica{Worker: k.worker(), Storage: k.s, Tier: tier}
}

func blockOf(id core.BlockID) core.Block { return core.Block{ID: id, GenStamp: 1} }

// queue compares the deletions the manager ordered with the oracle's
// and hands them to the workers.
func (w *world) queue(step string, got []BlockReplica, want []slot) {
	w.t.Helper()
	var g, e []string
	for _, d := range got {
		g = append(g, fmt.Sprint(slot{d.Block.ID, d.Storage}))
		w.deletes = append(w.deletes, slot{d.Block.ID, d.Storage})
	}
	for _, k := range want {
		e = append(e, fmt.Sprint(k))
	}
	sort.Strings(g)
	sort.Strings(e)
	if fmt.Sprint(g) != fmt.Sprint(e) {
		w.t.Fatalf("%s: manager ordered deletes %v, oracle %v", step, g, e)
	}
}

func (w *world) listing(worker core.WorkerID) []slot {
	var out []slot
	for k := range w.disk {
		if k.worker() == worker {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// pick removes and returns a random element for which ok holds.
func (w *world) pick(q *[]slot, ok func(slot) bool) (slot, bool) {
	for _, i := range w.rng.Perm(len(*q)) {
		if k := (*q)[i]; ok(k) {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return k, true
		}
	}
	return slot{}, false
}

// take removes and returns every element of the worker's.
func take(q *[]slot, worker core.WorkerID) (taken []slot) {
	kept := (*q)[:0]
	for _, k := range *q {
		if k.worker() == worker {
			taken = append(taken, k)
		} else {
			kept = append(kept, k)
		}
	}
	*q = kept
	return taken
}

// step performs one random action on both the manager and the oracle
// and names it; lossy marks the steps that may legitimately take a
// block's last replica (a worker's or a client's own doing).
func (w *world) step() (name string, lossy bool) {
	m, o := w.m, w.o
	up := func(k slot) bool { return w.alive[k.worker()] }
	n := w.rng.Intn(100)
	if w.nextBlock == 0 {
		n = 0
	}
	switch {
	case n < 6 && w.nextBlock < 6: // a client allocates a block
		w.nextBlock++
		b := w.nextBlock
		o.known[b] = true
		var targets []Replica
		for i := 0; i <= w.rng.Intn(3); i++ {
			if k := w.randSlot(b); up(k) && o.schedule(k, orec{pipeline: true}) {
				targets = append(targets, replicaOf(k))
				w.copies = append(w.copies, k)
				w.pipeline[k] = true
				w.targets[b] = append(w.targets[b], k)
			}
		}
		m.AddBlock(blockOf(b), core.ReplicationVectorFromFactor(2), targets...)
		return fmt.Sprintf("addBlock %d %v", b, targets), false
	case n < 12: // the client commits after the ack: every stage stored it
		b := w.randBlock()
		for _, k := range w.targets[b] {
			if !w.disk[k] {
				return fmt.Sprintf("commit %d: no ack", b), false
			}
		}
		m.CommitBlock(blockOf(b))
		for k, r := range o.recs {
			if k.b == b && r.state == pendingAdd && r.pipeline {
				*r = orec{state: live}
			}
		}
		return fmt.Sprintf("commit %d", b), false
	case n < 30: // a copy lands (or fails); a copy's worker says so, a pipeline stage does not
		k, ok := w.pick(&w.copies, up)
		if !ok {
			return "land: none", false
		}
		stage := w.pipeline[k]
		delete(w.pipeline, k)
		source := stage
		for d := range w.disk {
			source = source || d.b == k.b && d != k
		}
		if !source || w.rng.Intn(8) == 0 {
			return fmt.Sprintf("copy %v failed", k), false
		}
		w.disk[k] = true
		if stage {
			return fmt.Sprintf("pipeline stage %v stored", k), false
		}
		w.queue("land", m.AddReplica(blockOf(k.b), replicaOf(k)), o.confirm(k))
		return fmt.Sprintf("land %v", k), false
	case n < 38: // re-replication
		k := w.randSlot(w.randBlock())
		if !up(k) {
			return "repair: target down", false // placement only sees live workers
		}
		want := o.schedule(k, orec{expires: o.tick + 3})
		if got := m.Schedule(k.b, replicaOf(k), 3, ""); got != want {
			w.t.Fatalf("Schedule(%v) = %v, oracle %v", k, got, want)
		} else if got {
			w.copies = append(w.copies, k)
		}
		return fmt.Sprintf("repair %v", k), false
	case n < 48: // tier move: copy to k, retire victim on confirmation
		k := w.randSlot(w.randBlock())
		victim := w.randSlot(k.b).s
		if !up(k) || victim == k.s {
			return "move: no such move", false
		}
		want := o.schedule(k, orec{expires: o.tick + 5, retire: victim})
		if got := m.Schedule(k.b, replicaOf(k), 5, victim); got != want {
			w.t.Fatalf("Schedule(%v) = %v, oracle %v", k, got, want)
		} else if got {
			w.copies = append(w.copies, k)
		}
		return fmt.Sprintf("move %v retiring %s", k, victim), false
	case n < 56: // excess removal or corruption report
		k := w.randSlot(w.randBlock())
		w.queue("retire", m.Retire(k.b, k.s), o.retire(k))
		return fmt.Sprintf("retire %v", k), false
	case n < 72: // a worker runs a delete
		k, ok := w.pick(&w.deletes, up)
		if !ok {
			k, ok = w.pick(&w.overdue, up)
		}
		delete(w.disk, k)
		return fmt.Sprintf("delete %v (queued: %v)", k, ok), false
	case n < 88: // block report, fresh or one interval stale
		worker := modelWorkers[w.rng.Intn(len(modelWorkers))]
		if !w.alive[worker] {
			return "report: worker down", false
		}
		for _, k := range take(&w.overdue, worker) {
			delete(w.disk, k)
		}
		w.overdue = append(w.overdue, take(&w.deletes, worker)...)
		fresh := w.listing(worker)
		listed, kind := fresh, "fresh"
		if !w.mustFresh[worker] && w.rng.Intn(3) == 0 {
			listed, kind = w.snap[worker], "stale"
		}
		w.mustFresh[worker] = kind == "stale"
		w.snap[worker] = fresh
		stored := make([]BlockReplica, len(listed))
		for i, k := range listed {
			stored[i] = BlockReplica{blockOf(k.b), replicaOf(k)}
		}
		w.queue("report", m.Report(worker, stored), o.report(worker, listed))
		return fmt.Sprintf("%s report %s %v", kind, worker, listed), false
	case n < 94: // monitor tick
		m.Tick()
		o.tick++
		o.dropWhere(func(_ slot, r *orec) bool {
			return r.state == pendingAdd && r.expires != 0 && r.expires <= o.tick
		})
		return "tick", false
	case n < 97: // a worker dies with its queued commands, or restarts
		worker := modelWorkers[w.rng.Intn(len(modelWorkers))]
		if w.alive[worker] = !w.alive[worker]; w.alive[worker] {
			return fmt.Sprintf("restart %s", worker), false
		}
		m.RemoveWorker(worker)
		o.dropWhere(func(k slot, _ *orec) bool { return k.worker() == worker })
		for _, k := range take(&w.copies, worker) {
			delete(w.pipeline, k)
		}
		take(&w.deletes, worker)
		take(&w.overdue, worker)
		w.mustFresh[worker] = true
		return fmt.Sprintf("expire %s", worker), true
	default: // the file is deleted
		b := w.randBlock()
		var want []slot
		for k, r := range o.recs {
			if k.b == b && r.state == live {
				want = append(want, k)
			}
		}
		w.queue("removeBlock", m.RemoveBlock(b), want)
		o.dropWhere(func(k slot, _ *orec) bool { return k.b == b })
		delete(o.known, b)
		return fmt.Sprintf("removeBlock %d", b), true
	}
}

// verify checks, after every step, the manager against the oracle and
// against the world.
func (w *world) verify(step string, hadLive map[core.BlockID]bool, lossy bool) {
	w.t.Helper()
	m, o := w.m, w.o
	if bad := m.Check(func(id core.WorkerID) bool { return w.alive[id] }); len(bad) != 0 {
		w.t.Fatalf("after %s: Check: %v", step, bad)
	}
	got := make(map[slot]orec)
	adds := make(map[core.StorageID]int)
	for id, bi := range m.blocks {
		for _, r := range bi.replicas {
			got[slot{id, r.Storage}] = orec{state: r.state, omitted: r.omitted}
		}
	}
	for k, r := range o.recs {
		if g, ok := got[k]; !ok || g.state != r.state || g.omitted != r.omitted {
			w.t.Fatalf("after %s: slot %v is %+v, oracle %+v", step, k, g, *r)
		}
		if r.state == pendingAdd {
			adds[k.s]++
		}
		// The end-to-end property: a replica readers are sent to exists.
		if r.state == live && !w.disk[k] {
			w.t.Fatalf("after %s: %v is live but not on its worker's disk", step, k)
		}
	}
	if len(got) != len(o.recs) {
		w.t.Fatalf("after %s: manager holds %d records, oracle %d", step, len(got), len(o.recs))
	}
	for _, worker := range modelWorkers {
		for _, medium := range []string{":hdd0", ":mem0"} {
			sid := core.StorageID(string(worker) + medium)
			if m.PendingAdds(sid) != adds[sid] {
				w.t.Fatalf("after %s: PendingAdds(%s) = %d, oracle %d", step, sid, m.PendingAdds(sid), adds[sid])
			}
		}
	}
	for b := range hadLive {
		if info, ok := m.Info(b); !lossy && ok && !info.UnderConstruction && len(info.Replicas)+len(info.Pending) == 0 {
			w.t.Fatalf("after %s: block %d lost its last replica", step, b)
		}
	}
}

func runLifeCycleModel(t *testing.T, seed int64, steps int) {
	w := &world{
		t: t, rng: rand.New(rand.NewSource(seed)), m: NewManager(),
		o:     &oracle{recs: make(map[slot]*orec), known: make(map[core.BlockID]bool)},
		alive: map[core.WorkerID]bool{"w1": true, "w2": true, "w3": true},
		disk:  make(map[slot]bool), pipeline: make(map[slot]bool), targets: make(map[core.BlockID][]slot),
		snap: make(map[core.WorkerID][]slot), mustFresh: make(map[core.WorkerID]bool),
	}
	var trail []string
	for i := 0; i < steps; i++ {
		hadLive := make(map[core.BlockID]bool)
		for b := range w.o.known {
			hadLive[b] = w.o.count(b, live) > 0
		}
		name, lossy := w.step()
		trail = append(trail, name)
		if len(trail) > 25 {
			trail = trail[1:]
		}
		if w.nextBlock == 0 {
			continue
		}
		for b, had := range hadLive {
			if !had {
				delete(hadLive, b)
			}
		}
		w.verify(fmt.Sprintf("seed %d step %d (%s)\n  trail: %s\n", seed, i, name, strings.Join(trail, "\n         ")), hadLive, lossy)
	}
}

var lifeCycleSeeds = flag.Int64("lifecycle-seeds", 8, "number of seeds TestLifeCycleModel runs")

func TestLifeCycleModel(t *testing.T) {
	for seed := int64(1); seed <= *lifeCycleSeeds; seed++ {
		runLifeCycleModel(t, seed, 1500)
	}
}
