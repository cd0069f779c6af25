package yokan

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLSMReadsAndWritesProgressDuringCompaction is the ISSUE 8 acceptance
// test for the background storage tier: while a deliberately stretched
// merge is in flight, foreground Gets and Puts must keep completing — the
// merge streams outside the database lock and only the install is a
// critical section. Run under -race in CI, this also shakes out data races
// between the merge's table snapshot and concurrent readers.
func TestLSMReadsAndWritesProgressDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultLSMOptions()
	opts.MemtableBytes = 1 << 30 // manual flushes only
	opts.CompactAt = 1000        // compact only when forced
	db, err := openLSM("t", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const rounds, perRound = 4, 2000
	val := make([]byte, 128)
	for g := 0; g < rounds; g++ {
		for i := 0; i < perRound; i++ {
			if err := db.Put([]byte(fmt.Sprintf("g%d-%05d", g, i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if tc := db.TableCount(); tc != rounds {
		t.Fatalf("setup made %d tables, want %d", tc, rounds)
	}

	// Stretch the merge so the foreground load demonstrably overlaps it.
	started := make(chan struct{})
	var once sync.Once
	db.duringCompact = func() {
		once.Do(func() { close(started) })
		time.Sleep(200 * time.Microsecond)
	}

	compactDone := make(chan error, 1)
	go func() { compactDone <- db.Compact() }()
	<-started

	var gets, puts atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("g%d-%05d", i%rounds, (i*37)%perRound)
				if _, err := db.Get([]byte(k)); err != nil {
					t.Errorf("Get(%s) during compaction: %v", k, err)
					return
				}
				gets.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Put([]byte(fmt.Sprintf("live-%05d", i)), []byte("w")); err != nil {
				t.Errorf("Put during compaction: %v", err)
				return
			}
			puts.Add(1)
		}
	}()

	if err := <-compactDone; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	close(stop)
	wg.Wait()

	// The acceptance criterion: non-zero foreground throughput while the
	// merge was in flight.
	t.Logf("during compaction: %d gets, %d puts", gets.Load(), puts.Load())
	if gets.Load() == 0 {
		t.Fatal("no Get completed while the merge was in flight")
	}
	if puts.Load() == 0 {
		t.Fatal("no Put completed while the merge was in flight")
	}

	// Everything is still there afterwards.
	for g := 0; g < rounds; g++ {
		for i := 0; i < perRound; i += 101 {
			if _, err := db.Get([]byte(fmt.Sprintf("g%d-%05d", g, i))); err != nil {
				t.Fatalf("pre-merge key lost: g%d-%05d: %v", g, i, err)
			}
		}
	}
	for i := int64(0); i < puts.Load(); i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("live-%05d", i))); err != nil {
			t.Fatalf("concurrent write lost: live-%05d: %v", i, err)
		}
	}
}

// TestLSMBackgroundFlushCompaction drives the pull-model background path
// end to end: a tiny memtable makes writes swap and return immediately
// while flushes and merges run on the compactor; after the dust settles
// every write is durable and tables have converged.
func TestLSMBackgroundFlushCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultLSMOptions()
	opts.MemtableBytes = 8 << 10
	opts.CompactAt = 3
	db, err := openLSM("t", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k-%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Synchronous drain of whatever is still queued, then verify.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.jobs.Wait()
	if err := db.BackgroundErr(); err != nil {
		t.Fatalf("background job failed: %v", err)
	}
	flushes, compactions := db.Counters()
	if flushes == 0 || compactions == 0 {
		t.Fatalf("background machinery idle: %d flushes, %d compactions", flushes, compactions)
	}
	cnt, err := db.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("Count = %d, want %d", cnt, n)
	}
	db.Close()

	// And it all survives a reopen.
	re, err := openLSM("t", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cnt, err = re.Count()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != n {
		t.Fatalf("reopened Count = %d, want %d", cnt, n)
	}
}

// TestLSMGroupCommitBatchesFsyncs checks both halves of the group-commit
// contract: concurrent writers share fsyncs (syncs << appends), and every
// acknowledged write is durable — a directory snapshot taken right after
// the last Put returns, with no clean shutdown, replays completely.
func TestLSMGroupCommitBatchesFsyncs(t *testing.T) {
	// A wider window makes the group deterministic on slow runners.
	defer func(w time.Duration) { groupCommitWindow = w }(groupCommitWindow)
	groupCommitWindow = 2 * time.Millisecond
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 24
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%02d-%04d", w, i)
				if err := db.Put([]byte(k), []byte(k)); err != nil {
					t.Errorf("Put(%s): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	appends, syncs := db.WALStats()
	t.Logf("group commit: %d appends, %d fsyncs", appends, syncs)
	if appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", appends, writers*perWriter)
	}
	if syncs == 0 {
		t.Fatal("sync mode issued no fsyncs")
	}
	if syncs*2 > appends {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", syncs, appends)
	}

	// Durability: snapshot the directory as a simulated crash image —
	// every acknowledged write must already be on disk.
	snap := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		src, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(snap, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		dst.Close()
	}
	db.Close()

	re, err := openLSM("t", snap, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, err := re.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("crash image recovered %d writes, want all %d acknowledged ones", n, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		k := fmt.Sprintf("w%02d-%04d", w, perWriter-1)
		if got, err := re.Get([]byte(k)); err != nil || string(got) != k {
			t.Fatalf("acknowledged write %s not durable: %q %v", k, got, err)
		}
	}
}

// TestLSMBackgroundErrorSurfaces: a flush that keeps failing in the
// background must become visible to the foreground instead of vanishing.
func TestLSMBackgroundErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultLSMOptions()
	opts.MemtableBytes = 4 << 10
	db, err := openLSM("t", dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	boom := errors.New("injected background flush failure")
	db.afterFlushTable = func() error { return boom }
	val := make([]byte, 256)
	for i := 0; i < 64; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	db.jobs.Wait()
	if err := db.BackgroundErr(); !errors.Is(err, boom) {
		t.Fatalf("BackgroundErr = %v, want the injected failure", err)
	}
	// The data is still readable (memtable + WAL) despite the stuck flush.
	if _, err := db.Get([]byte("k-0000")); err != nil {
		t.Fatal(err)
	}
}

// Budget for the cached point-read path, locked as the ISSUE 8 perf gate:
// a Get served from a resident cache block costs one value clone plus
// iterator scaffolding — nothing proportional to table or block size. The
// pre-refactor path decoded the whole block from disk on every read.
const budgetCachedGet = 4

// TestAllocBudgetLSMCachedGet locks the allocation cost of the hot read
// path (resident block-cache hit). The name rides the alloc-smoke CI
// job's TestAllocBudget pattern, which runs without -race like the other
// budget tests.
func TestAllocBudgetLSMCachedGet(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 512
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
		db.Put(keys[i], make([]byte, 64))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys { // warm the cache
		if _, err := db.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	const per = 16
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys[:per] {
			if _, err := db.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}) / per
	t.Logf("cached Get: %.2f allocs/op (budget %d)", allocs, budgetCachedGet)
	if allocs > budgetCachedGet {
		t.Errorf("cached Get allocs/op = %.2f exceeds locked budget %d", allocs, budgetCachedGet)
	}
	if s := db.CacheStats(); s.Hits == 0 {
		t.Fatal("budget loop never hit the cache — measuring the wrong path")
	}
}
