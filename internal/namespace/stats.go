package namespace

import "time"

// OpStats is the per-operation phase breakdown a caller can opt into
// by passing a *OpStats to any namespace method: how long the op
// waited for the namespace mutex, how long the in-memory apply took,
// and (for mutations on a persistent namespace) the edit-log append
// and fsync durations. The master feeds these into its audit log so
// every slow metadata op can be attributed to lock contention, tree
// work, or the disk.
type OpStats struct {
	LockWaitNs int64
	ApplyNs    int64
	AppendNs   int64
	FsyncNs    int64
}

// statsOf unpacks the optional variadic stats argument: namespace
// methods take `stats ...*OpStats` so existing callers stay
// source-compatible, and at most the first entry is used.
func statsOf(stats []*OpStats) *OpStats {
	if len(stats) > 0 {
		return stats[0]
	}
	return nil
}

// LockObserver receives every namespace mutex acquisition's wait
// time; read reports RLock vs Lock. Used by the master to feed its
// lock-contention histograms without the namespace importing metrics.
type LockObserver func(wait time.Duration, read bool)

// EditObserver receives every edit-log append's durations and the
// number of records in the batch (always 1 today; the hook exists so
// group commit can land without another plumbing change). fsync is
// zero when the log is not in sync mode.
type EditObserver func(append, fsync time.Duration, records int)

// SetLockObserver installs fn (nil clears) as the mutex-wait
// observer. Safe to call concurrently with operations.
func (ns *Namespace) SetLockObserver(fn LockObserver) {
	ns.lockObs.Store(&fn)
}

// SetEditObserver installs fn (nil clears) as the edit-log observer.
func (ns *Namespace) SetEditObserver(fn EditObserver) {
	ns.editObs.Store(&fn)
}

// lock acquires the write lock, recording the wait in st and the
// observer.
func (ns *Namespace) lock(st *OpStats) {
	t0 := time.Now()
	ns.mu.Lock()
	ns.observeLock(time.Since(t0), false, st)
}

// rlock acquires the read lock, recording the wait in st and the
// observer.
func (ns *Namespace) rlock(st *OpStats) {
	t0 := time.Now()
	ns.mu.RLock()
	ns.observeLock(time.Since(t0), true, st)
}

func (ns *Namespace) observeLock(wait time.Duration, read bool, st *OpStats) {
	if st != nil {
		st.LockWaitNs += wait.Nanoseconds()
	}
	if p := ns.lockObs.Load(); p != nil && *p != nil {
		(*p)(wait, read)
	}
}

// timeApply times a read op's body (the "apply" phase of an op that
// mutates nothing): `defer timeApply(st)()` after taking the lock.
func timeApply(st *OpStats) func() {
	if st == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { st.ApplyNs += time.Since(t0).Nanoseconds() }
}

// observeEdit reports one edit-log append to st and the observer.
func (ns *Namespace) observeEdit(appendD, fsyncD time.Duration, records int, st *OpStats) {
	if st != nil {
		st.AppendNs += appendD.Nanoseconds()
		st.FsyncNs += fsyncD.Nanoseconds()
	}
	if p := ns.editObs.Load(); p != nil && *p != nil {
		(*p)(appendD, fsyncD, records)
	}
}

// RecoveryStats describes what it cost to bring the namespace up:
// checkpoint size and load time, and how many edit records were
// replayed on top in how long. Zero for volatile namespaces.
type RecoveryStats struct {
	ImageBytes    int64 `json:"image_bytes"`
	ImageLoadNs   int64 `json:"image_load_ns"`
	EditsReplayed int   `json:"edits_replayed"`
	ReplayNs      int64 `json:"replay_ns"`
}

// Recovery returns the stats recorded by the last Open.
func (ns *Namespace) Recovery() RecoveryStats {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.recovery
}
