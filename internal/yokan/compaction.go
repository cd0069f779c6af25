package yokan

import "github.com/hep-on-hpc/hepnos-go/internal/argo"

// Compactor schedules LSM background work (memtable flushes and table
// merges) onto a dedicated argo pool so storage I/O never steals cycles
// from RPC execution streams. One Compactor is shared by all LSM databases
// of a server process; with a nil pool (or after pool shutdown) jobs fall
// back to plain goroutines, so the storage tier works standalone in tests
// and tools.
type Compactor struct {
	pool *argo.Pool
}

// NewCompactor wraps an argo pool as the storage background executor.
func NewCompactor(pool *argo.Pool) *Compactor {
	return &Compactor{pool: pool}
}

// submit runs fn asynchronously. It never blocks the caller and never
// drops fn: if the pool is missing or already shut down, fn runs on a
// fresh goroutine instead.
func (c *Compactor) submit(fn func()) {
	if c == nil || c.pool == nil || c.pool.Push(fn) != nil {
		go fn()
	}
}

// flushTask is one immutable memtable awaiting flush, together with the
// WAL segments that made it durable. The segments are deleted only after
// the flushed table is committed to the manifest — until then every
// acknowledged write has at least one durable home.
type flushTask struct {
	mem      *skipList
	walPaths []string
}

// flushJob drains one pending immutable memtable; compactJob runs one
// merge round. Both are methods on lsmDB (see lsm.go) and are pushed
// through Compactor.submit. They are pull-model: each job processes the
// oldest pending unit, so flush order — and therefore table recency order
// — is preserved no matter how the pool interleaves job execution.
func (db *lsmDB) flushJob() {
	defer db.jobs.Done()
	if err := db.flushOldest(); err != nil {
		db.noteBackgroundError(err)
	}
}

func (db *lsmDB) compactJob() {
	defer db.jobs.Done()
	if err := db.compactOnce(); err != nil {
		db.noteBackgroundError(err)
	}
}
