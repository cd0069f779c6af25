package yokan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// LSMOptions tunes the lsm backend.
type LSMOptions struct {
	// MemtableBytes is the flush threshold for the in-memory write buffer.
	MemtableBytes int64
	// CompactAt triggers a full merge when the table count reaches it.
	CompactAt int
	// IndexEvery is the sparse-index stride inside SSTables.
	IndexEvery int
	// BloomBitsPerKey sizes the per-table bloom filters.
	BloomBitsPerKey int
	// SyncWrites makes every write durable before it is acknowledged.
	// Concurrent writers share fsyncs through the group-commit WAL: a
	// commit leader waits a short window for riders and issues one fsync
	// for the whole group.
	SyncWrites bool
	// Cache serves decoded SSTable blocks for point lookups. Nil creates a
	// private cache of BlockCacheBytes (bedrock injects one shared cache
	// per server instead). DisableBlockCache turns caching off entirely.
	Cache             *BlockCache
	BlockCacheBytes   int64
	DisableBlockCache bool
	// Compactor schedules background jobs; nil falls back to goroutines.
	Compactor *Compactor
}

// DefaultLSMOptions returns production-ish defaults scaled for tests and
// single-node benchmarks. A zero field of LSMOptions selects the default
// here, so LSMOptions{} opens the same database.
func DefaultLSMOptions() LSMOptions {
	return LSMOptions{
		MemtableBytes:   4 << 20,
		CompactAt:       6,
		IndexEvery:      16,
		BloomBitsPerKey: 10,
	}
}

// lsmManifest is the on-disk source of truth for which tables exist. It is
// replaced atomically (tmp + rename + dir fsync); the crash protocol is
// always "new table durable → manifest update → old WAL/table removal", so
// at every instant the manifest names a complete, consistent table set:
//
//   - an SSTable not in the manifest is an orphan from an interrupted
//     flush/compaction and is removed at open (its data still lives in WAL
//     segments or in the pre-compaction tables the manifest still lists);
//   - tombstones may be dropped during a merge precisely because the merge
//     output replaces *all* tables it covers in one manifest swap — the
//     pre-merge table holding the deleted key can never be adopted without
//     the tombstone that shadows it.
type lsmManifest struct {
	Seq    int      `json:"seq"`
	Tables []string `json:"tables"` // base names, oldest first
}

const manifestName = "MANIFEST"

func readManifest(dir string) (*lsmManifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m lsmManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("yokan: corrupt manifest: %w", err)
	}
	return &m, nil
}

func writeManifest(dir string, m lsmManifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// RecoveryInfo reports what the last open rebuilt from disk. A restarted
// server reports these as the local half of its rejoin — only writes
// missing from both WAL and tables are anti-entropy traffic.
type RecoveryInfo struct {
	Records     int // intact WAL records replayed into the memtable
	Tables      int // SSTables reattached from the manifest
	Quarantined int // tables failing CRC verification, set aside as .bad
	Orphans     int // tables from interrupted flush/compaction, removed
}

// lsmDB is the persistent backend standing in for RocksDB: writes go to a
// segmented WAL and a skip-list memtable; full memtables move to an
// immutable queue and are flushed to sorted tables by background jobs;
// reads consult memtable → immutable queue → tables newest-first through a
// shared block cache; a size-tiered full merge bounds the table count and
// drops tombstones, installing its result under a short critical section.
type lsmDB struct {
	name string
	dir  string
	opts LSMOptions

	cache     *BlockCache
	compactor *Compactor

	mu          sync.RWMutex
	mem         *skipList
	imm         []*flushTask // oldest first, awaiting flush
	wal         *wal
	pendingSegs []string   // replayed segments backing the current memtable
	tables      []*sstable // newest first
	seq         int        // next sstable sequence number
	walSeq      int        // next wal segment number
	closed      bool
	bgErr       error

	// bgMu serializes flush/compaction execution and manifest writes; it
	// is never held while blocking a foreground read or write.
	bgMu          sync.Mutex
	jobs          sync.WaitGroup
	compactQueued bool

	flushCount   int
	compactCount int
	// walAppends/walSyncs accumulate stats of rotated-out segments.
	walAppends int64
	walSyncs   int64

	recovered RecoveryInfo

	// Test hooks (set before use; nil in production). The after* hooks run
	// once the new table is durable at its final name but before the
	// manifest commit — returning an error simulates a crash inside the
	// two crash windows the manifest protocol must cover. duringCompact is
	// called periodically inside the merge loop.
	afterFlushTable   func() error
	afterCompactTable func() error
	duringCompact     func()
}

func openLSM(name, dir string, opts LSMOptions) (*lsmDB, error) {
	def := DefaultLSMOptions()
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = def.MemtableBytes
	}
	if opts.CompactAt < 2 {
		opts.CompactAt = def.CompactAt
	}
	if opts.IndexEvery < 1 {
		opts.IndexEvery = def.IndexEvery
	}
	if opts.BloomBitsPerKey < 1 {
		opts.BloomBitsPerKey = def.BloomBitsPerKey
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("yokan: create lsm dir: %w", err)
	}

	db := &lsmDB{
		name:      name,
		dir:       dir,
		opts:      opts,
		compactor: opts.Compactor,
		mem:       newSkipList(0x15a1),
	}
	if !opts.DisableBlockCache {
		if opts.Cache != nil {
			db.cache = opts.Cache
		} else {
			db.cache = NewBlockCache(opts.BlockCacheBytes)
		}
	}

	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil {
		return nil, err
	}
	if man == nil {
		// The manifest is written at first open, before any table exists,
		// so tables without one were not written by this store. Refuse the
		// directory and leave the files alone.
		if len(onDisk) > 0 {
			return nil, fmt.Errorf("yokan: lsm dir %s holds %d tables but no %s", dir, len(onDisk), manifestName)
		}
		man = &lsmManifest{}
	}

	// Interrupted writers leave *.tmp files; none were ever visible.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}

	inManifest := make(map[string]bool, len(man.Tables))
	for _, nm := range man.Tables {
		inManifest[nm] = true
	}
	for _, p := range onDisk {
		if !inManifest[filepath.Base(p)] {
			os.Remove(p)
			db.recovered.Orphans++
		}
	}
	for _, nm := range man.Tables {
		p := filepath.Join(dir, nm)
		t, err := openSSTable(p, db.cache, true)
		if err != nil {
			// Missing, torn or corrupt table: set it aside instead of
			// refusing to open the database. Its data is either replayed
			// from WAL segments (interrupted flush) or still in the
			// pre-merge tables (interrupted compaction).
			os.Rename(p, p+".bad")
			db.recovered.Quarantined++
			continue
		}
		db.tables = append([]*sstable{t}, db.tables...)
	}
	db.seq = man.Seq
	db.recovered.Tables = len(db.tables)

	// Replay WAL segments (oldest first) into the memtable. The replayed
	// segments back the current memtable and are deleted only once it is
	// durably flushed.
	segs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, sp := range segs {
		err := replayWAL(sp, func(op byte, key, val []byte) error {
			if op == walOpDel {
				db.mem.set(clone(key), nil, true)
			} else {
				db.mem.set(clone(key), clone(val), false)
			}
			db.recovered.Records++
			return nil
		})
		if err != nil {
			return nil, err
		}
		base := filepath.Base(sp)
		var n int
		if _, err := fmt.Sscanf(base, "wal-%08d.log", &n); err == nil && n >= db.walSeq {
			db.walSeq = n + 1
		}
	}
	db.pendingSegs = segs

	active := filepath.Join(dir, walSegmentName(db.walSeq))
	db.walSeq++
	db.wal, err = openWAL(active, opts.SyncWrites)
	if err != nil {
		return nil, err
	}

	// Re-anchor the manifest to what was actually adopted.
	if err := writeManifest(dir, lsmManifest{Seq: db.seq, Tables: db.tableNamesLocked()}); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *lsmDB) Name() string { return db.name }
func (db *lsmDB) Type() string { return "lsm" }

// tableNamesLocked returns table base names oldest-first (manifest order).
func (db *lsmDB) tableNamesLocked() []string {
	names := make([]string, len(db.tables))
	for i, t := range db.tables {
		names[len(db.tables)-1-i] = filepath.Base(t.path)
	}
	return names
}

func (db *lsmDB) noteBackgroundError(err error) {
	db.mu.Lock()
	if db.bgErr == nil {
		db.bgErr = err
	}
	db.mu.Unlock()
}

// BackgroundErr returns the first error hit by a background flush or
// compaction job, if any.
func (db *lsmDB) BackgroundErr() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.bgErr
}

// swapMemtableLocked moves the current memtable (and the WAL segments that
// back it) onto the immutable flush queue and starts a fresh memtable on a
// new WAL segment. The outgoing segment is fsynced first, so everything in
// the queue always has a durable home. Caller holds db.mu.
func (db *lsmDB) swapMemtableLocked() error {
	if db.mem.approxBytes() == 0 {
		return nil
	}
	if err := db.wal.flush(); err != nil {
		return err
	}
	a, s := db.wal.stats()
	db.walAppends += a
	db.walSyncs += s
	if err := db.wal.close(); err != nil {
		return err
	}
	task := &flushTask{mem: db.mem, walPaths: append(db.pendingSegs, db.wal.path)}
	db.pendingSegs = nil
	db.imm = append(db.imm, task)
	db.mem = newSkipList(0x15a1 + uint64(db.walSeq))

	path := filepath.Join(db.dir, walSegmentName(db.walSeq))
	db.walSeq++
	w, err := openWAL(path, db.opts.SyncWrites)
	if err != nil {
		return err
	}
	db.wal = w
	return nil
}

// maybeSwapLocked rotates the memtable once it crosses the threshold and
// reserves a flush job slot (the Add must happen in the same critical
// section that observed closed=false, so Close's jobs.Wait can never race
// with it). The caller submits the job after releasing db.mu.
func (db *lsmDB) maybeSwapLocked() (swapped bool, err error) {
	if db.mem.approxBytes() < db.opts.MemtableBytes {
		return false, nil
	}
	if err := db.swapMemtableLocked(); err != nil {
		return false, err
	}
	db.jobs.Add(1)
	return true, nil
}

// afterWrite completes a write after db.mu is released: submit the flush
// job reserved under the lock, then wait for group-commit durability.
func (db *lsmDB) afterWrite(w *wal, off int64, swapped bool) error {
	if swapped {
		db.compactor.submit(db.flushJob)
	}
	return w.waitDurable(off)
}

func (db *lsmDB) Put(key, val []byte) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrDBClosed
	}
	w := db.wal
	off, err := w.append(walOpPut, key, val)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	db.mem.set(clone(key), clone(val), false)
	swapped, err := db.maybeSwapLocked()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.afterWrite(w, off, swapped)
}

func (db *lsmDB) GetOrPut(key, val []byte) ([]byte, bool, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, false, ErrDBClosed
	}
	if v, live, present := db.lookupLocked(key); present && live {
		out := clone(v)
		db.mu.Unlock()
		return out, false, nil
	}
	w := db.wal
	off, err := w.append(walOpPut, key, val)
	if err != nil {
		db.mu.Unlock()
		return nil, false, err
	}
	db.mem.set(clone(key), clone(val), false)
	swapped, err := db.maybeSwapLocked()
	db.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	if err := db.afterWrite(w, off, swapped); err != nil {
		return nil, false, err
	}
	return clone(val), true, nil
}

func (db *lsmDB) Erase(key []byte) (bool, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return false, ErrDBClosed
	}
	_, live, present := db.lookupLocked(key)
	existed := present && live
	w := db.wal
	off, err := w.append(walOpDel, key, nil)
	if err != nil {
		db.mu.Unlock()
		return false, err
	}
	db.mem.set(clone(key), nil, true)
	swapped, err := db.maybeSwapLocked()
	db.mu.Unlock()
	if err != nil {
		return false, err
	}
	if err := db.afterWrite(w, off, swapped); err != nil {
		return false, err
	}
	return existed, nil
}

// lookupLocked resolves a key across memtable → immutable queue (newest
// first) → tables (newest first). The returned value may alias a shared
// cache block; callers clone before releasing db.mu.
func (db *lsmDB) lookupLocked(key []byte) (val []byte, live, present bool) {
	if v, lv, ok := db.mem.get(key); ok {
		return v, lv, true
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if v, lv, ok := db.imm[i].mem.get(key); ok {
			return v, lv, true
		}
	}
	for _, t := range db.tables {
		if e, ok := t.get(key); ok {
			return e.val, !e.tomb, true
		}
	}
	return nil, false, false
}

func (db *lsmDB) Get(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrDBClosed
	}
	v, live, present := db.lookupLocked(key)
	if !present || !live {
		return nil, ErrKeyNotFound
	}
	return clone(v), nil
}

func (db *lsmDB) Exists(key []byte) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return false, ErrDBClosed
	}
	_, live, present := db.lookupLocked(key)
	return present && live, nil
}

// mergeScan is the common engine behind ListKeys/ListKeyVals/Count: a
// streaming k-way merge of the memtable, immutable queue and all tables,
// newest source wins per key, tombstones suppress older entries. Nothing
// is materialized up front: each source is a pull iterator bounded to the
// requested range, so a scan stopping after max results reads only what it
// returned (plus one lookahead per source). With keysOnly set, table
// values are skipped on disk, not decoded — Count and ListKeys allocate
// nothing per value. Yielded slices are borrowed; callers clone what they
// keep. Caller holds db.mu (read side suffices).
func (db *lsmDB) mergeScan(from, prefix []byte, keysOnly bool, fn func(key, val []byte) bool) {
	var start []byte
	if len(from) > 0 {
		start = from
	} else if len(prefix) > 0 {
		start = prefix
	}
	upper := prefixUpper(prefix)

	bound := func(next func() (entry, bool)) func() (entry, bool) {
		return func() (entry, bool) {
			for {
				e, ok := next()
				if !ok {
					return entry{}, false
				}
				if len(from) > 0 && bytes.Compare(e.key, from) <= 0 {
					continue
				}
				if len(prefix) > 0 && !bytes.HasPrefix(e.key, prefix) {
					if bytes.Compare(e.key, prefix) < 0 {
						continue
					}
					if upper == nil || bytes.Compare(e.key, upper) >= 0 {
						return entry{}, false // past the prefix range
					}
					continue
				}
				if upper != nil && bytes.Compare(e.key, upper) >= 0 {
					return entry{}, false
				}
				return e, true
			}
		}
	}

	// Sources in recency order: memtable, immutable queue newest→oldest,
	// tables newest→oldest. Ties go to the lowest source index.
	var srcs []func() (entry, bool)
	srcs = append(srcs, bound(db.mem.iterFrom(start)))
	for i := len(db.imm) - 1; i >= 0; i-- {
		srcs = append(srcs, bound(db.imm[i].mem.iterFrom(start)))
	}
	for _, t := range db.tables {
		srcs = append(srcs, bound(t.scanIter(start, keysOnly)))
	}

	cur := make([]entry, len(srcs))
	ok := make([]bool, len(srcs))
	for i, s := range srcs {
		cur[i], ok[i] = s()
	}
	for {
		best := -1
		for i := range srcs {
			if !ok[i] {
				continue
			}
			if best == -1 || bytes.Compare(cur[i].key, cur[best].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			return
		}
		winner := cur[best]
		for i := range srcs {
			if ok[i] && bytes.Equal(cur[i].key, winner.key) {
				cur[i], ok[i] = srcs[i]()
			}
		}
		if winner.tomb {
			continue
		}
		if !fn(winner.key, winner.val) {
			return
		}
	}
}

func prefixUpper(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xff {
			ub := make([]byte, i+1)
			copy(ub, prefix[:i+1])
			ub[i]++
			return ub
		}
	}
	return nil
}

func (db *lsmDB) ListKeys(from, prefix []byte, max int) ([][]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrDBClosed
	}
	var out [][]byte
	db.mergeScan(from, prefix, true, func(key, _ []byte) bool {
		out = append(out, clone(key))
		return max <= 0 || len(out) < max
	})
	return out, nil
}

func (db *lsmDB) ListKeyVals(from, prefix []byte, max int) ([]KV, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrDBClosed
	}
	var out []KV
	db.mergeScan(from, prefix, false, func(key, val []byte) bool {
		out = append(out, KV{Key: clone(key), Val: clone(val)})
		return max <= 0 || len(out) < max
	})
	return out, nil
}

func (db *lsmDB) Count() (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return 0, ErrDBClosed
	}
	n := 0
	db.mergeScan(nil, nil, true, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, nil
}

// writeMemTable streams one (immutable) memtable into a new SSTable and
// returns the number of entries written (tombstones included).
func writeMemTable(path string, mem *skipList, indexEvery, bloomBits int) (int, error) {
	n := 0
	it := mem.iterFrom(nil)
	for {
		if _, ok := it(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	w, err := newSSTWriter(path, n, indexEvery, bloomBits)
	if err != nil {
		return 0, err
	}
	it = mem.iterFrom(nil)
	for {
		e, ok := it()
		if !ok {
			break
		}
		if err := w.add(e); err != nil {
			w.abort()
			return 0, err
		}
	}
	return n, w.finish()
}

// flushOldest drains the oldest pending immutable memtable: write its
// table (atomic: tmp + fsync + rename), install it under a short critical
// section, commit the manifest, and only then delete the WAL segments that
// backed it. Serialized with compaction by bgMu; foreground reads and
// writes only wait during the install window.
func (db *lsmDB) flushOldest() error {
	db.bgMu.Lock()

	db.mu.Lock()
	if len(db.imm) == 0 {
		db.mu.Unlock()
		db.bgMu.Unlock()
		return nil
	}
	task := db.imm[0]
	seq := db.seq
	db.seq++
	db.mu.Unlock()

	path := filepath.Join(db.dir, fmt.Sprintf("sst-%08d.sst", seq))
	n, err := writeMemTable(path, task.mem, db.opts.IndexEvery, db.opts.BloomBitsPerKey)
	if err != nil {
		db.bgMu.Unlock()
		return err
	}
	if n == 0 {
		// Nothing in the memtable (cannot normally happen: empty memtables
		// are never swapped). Drop the queue entry and its segments.
		db.mu.Lock()
		db.imm = db.imm[1:]
		db.mu.Unlock()
		for _, p := range task.walPaths {
			os.Remove(p)
		}
		db.bgMu.Unlock()
		return nil
	}
	if hook := db.afterFlushTable; hook != nil {
		if err := hook(); err != nil {
			db.bgMu.Unlock()
			return err
		}
	}
	t, err := openSSTable(path, db.cache, false)
	if err != nil {
		db.bgMu.Unlock()
		return err
	}

	db.mu.Lock()
	if db.closed {
		// Too late to install: leave the WAL segments in place — the
		// table is an orphan the next open will discard and re-replay.
		db.mu.Unlock()
		db.bgMu.Unlock()
		t.close()
		return nil
	}
	db.imm = db.imm[1:]
	db.tables = append([]*sstable{t}, db.tables...)
	db.flushCount++
	names := db.tableNamesLocked()
	seqNow := db.seq
	needCompact := len(db.tables) >= db.opts.CompactAt && !db.compactQueued
	if needCompact {
		db.compactQueued = true
		db.jobs.Add(1)
	}
	db.mu.Unlock()

	if err := writeManifest(db.dir, lsmManifest{Seq: seqNow, Tables: names}); err != nil {
		db.bgMu.Unlock()
		return err
	}
	// Manifest committed: the flushed data's durable home is the table now.
	for _, p := range task.walPaths {
		os.Remove(p)
	}
	db.bgMu.Unlock()

	if needCompact {
		db.compactor.submit(db.compactJob)
	}
	return nil
}

// compactOnce merges a snapshot of all current tables into one, dropping
// tombstones and shadowed versions. The merge streams outside any database
// lock — reads and writes keep flowing — and the result is installed under
// a short critical section followed by an atomic manifest swap.
func (db *lsmDB) compactOnce() error {
	db.bgMu.Lock()

	db.mu.Lock()
	if db.closed || len(db.tables) <= 1 {
		db.compactQueued = false
		db.mu.Unlock()
		db.bgMu.Unlock()
		return nil
	}
	snap := append([]*sstable(nil), db.tables...) // newest first
	seq := db.seq
	db.seq++
	db.mu.Unlock()

	total := 0
	for _, t := range snap {
		total += int(t.entries)
	}
	path := filepath.Join(db.dir, fmt.Sprintf("sst-%08d.sst", seq))
	w, err := newSSTWriter(path, total, db.opts.IndexEvery, db.opts.BloomBitsPerKey)
	if err != nil {
		db.bgMu.Unlock()
		return err
	}

	iters := make([]func() (entry, bool), len(snap))
	cur := make([]entry, len(snap))
	ok := make([]bool, len(snap))
	for i, t := range snap {
		iters[i] = t.scanIter(nil, false)
		cur[i], ok[i] = iters[i]()
	}
	written, steps := 0, 0
	for {
		best := -1
		for i := range iters {
			if !ok[i] {
				continue
			}
			if best == -1 || bytes.Compare(cur[i].key, cur[best].key) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		winner := cur[best]
		for i := range iters {
			if ok[i] && bytes.Equal(cur[i].key, winner.key) {
				cur[i], ok[i] = iters[i]()
			}
		}
		if hook := db.duringCompact; hook != nil {
			steps++
			if steps%64 == 0 {
				hook()
			}
		}
		if winner.tomb {
			continue // safe: this merge covers every table older than it
		}
		if err := w.add(winner); err != nil {
			w.abort()
			db.bgMu.Unlock()
			return err
		}
		written++
	}

	var merged *sstable
	if written == 0 {
		w.abort()
	} else {
		if err := w.finish(); err != nil {
			db.bgMu.Unlock()
			return err
		}
	}
	if hook := db.afterCompactTable; hook != nil {
		if err := hook(); err != nil {
			db.bgMu.Unlock()
			return err
		}
	}
	if written > 0 {
		merged, err = openSSTable(path, db.cache, false)
		if err != nil {
			db.bgMu.Unlock()
			return err
		}
	}

	db.mu.Lock()
	if db.closed {
		db.compactQueued = false
		db.mu.Unlock()
		db.bgMu.Unlock()
		if merged != nil {
			merged.close()
			os.Remove(path)
		}
		return nil
	}
	// Tables flushed during the merge are newer than the snapshot and stay
	// in front of the merged result.
	newer := db.tables[:len(db.tables)-len(snap)]
	db.tables = append([]*sstable(nil), newer...)
	if merged != nil {
		db.tables = append(db.tables, merged)
	}
	db.compactCount++
	db.compactQueued = false
	names := db.tableNamesLocked()
	seqNow := db.seq
	again := len(db.tables) >= db.opts.CompactAt
	if again {
		db.compactQueued = true
		db.jobs.Add(1)
	}
	db.mu.Unlock()

	if err := writeManifest(db.dir, lsmManifest{Seq: seqNow, Tables: names}); err != nil {
		db.bgMu.Unlock()
		return err
	}
	// Manifest no longer references the inputs: now they can go.
	for _, t := range snap {
		t.close()
		os.Remove(t.path)
	}
	db.bgMu.Unlock()

	if again {
		db.compactor.submit(db.compactJob)
	}
	return nil
}

// Flush forces the memtable to disk (exposed for tests/benchmarks). It is
// synchronous: on return every pre-existing write is in an installed table.
func (db *lsmDB) Flush() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrDBClosed
	}
	if err := db.swapMemtableLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	n := len(db.imm)
	db.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := db.flushOldest(); err != nil {
			return err
		}
	}
	return nil
}

// Compact merges all tables into one, dropping tombstones and shadowed
// versions (exposed for tests/benchmarks). Synchronous.
func (db *lsmDB) Compact() error {
	if err := db.Flush(); err != nil {
		return err
	}
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return ErrDBClosed
	}
	return db.compactOnce()
}

// TableCount returns the number of on-disk tables (for tests).
func (db *lsmDB) TableCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.tables)
}

// Counters returns (flushes, compactions) performed so far.
func (db *lsmDB) Counters() (int, int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.flushCount, db.compactCount
}

// WALStats returns cumulative WAL (appends, fsyncs) across all segments.
// Group commit's whole point is syncs << appends under SyncWrites.
func (db *lsmDB) WALStats() (appends, syncs int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	a, s := db.wal.stats()
	return db.walAppends + a, db.walSyncs + s
}

// CacheStats snapshots this database's block cache (shared across the
// server's DBs when bedrock injected one; zero-valued when caching is off).
func (db *lsmDB) CacheStats() BlockCacheStats {
	if db.cache == nil {
		return BlockCacheStats{}
	}
	return db.cache.Stats()
}

// RecoveryStats reports what the last open rebuilt from disk.
func (db *lsmDB) RecoveryStats() RecoveryInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.recovered
}

func (db *lsmDB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()

	// In-flight background jobs abort at their install point once they see
	// closed; wait them out before closing files they may still read.
	db.jobs.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.wal.close()
	for _, t := range db.tables {
		t.close()
	}
	return err
}
