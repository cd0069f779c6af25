package yokan

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// Storage-tier micro-benchmarks: cached vs uncached point reads,
// group-commit writes, and the keys-only scan. They are plain
// `go test -bench` tools for work on the LSM; the end-to-end storage
// numbers are the ingest-lsm and scan-lsm workloads of benchmark/.

// benchTableDB builds a flushed single-table store of n 256-byte values
// and returns it with the pre-rendered keys.
func benchTableDB(b *testing.B, opts LSMOptions, n int) (*lsmDB, [][]byte) {
	b.Helper()
	db, err := openLSM("bench", b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := bytes.Repeat([]byte{7}, 256)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%010d", i))
		if err := db.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, keys
}

// BenchmarkLSMGetCached is the headline cached read path: a working set
// resident in the block cache, point Gets served without touching the
// SSTable file.
func BenchmarkLSMGetCached(b *testing.B) {
	const n = 20000
	db, keys := benchTableDB(b, LSMOptions{MemtableBytes: 1 << 30}, n)
	for _, k := range keys { // warm the cache
		if _, err := db.Get(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%n]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := db.CacheStats()
	if s.Hits == 0 {
		b.Fatal("benchmark never hit the cache")
	}
}

// BenchmarkLSMGetUncached is the same lookup with the cache disabled:
// every Get re-reads and re-decodes its block from disk. The gap to
// BenchmarkLSMGetCached is what the cache buys.
func BenchmarkLSMGetUncached(b *testing.B) {
	const n = 20000
	db, keys := benchTableDB(b, LSMOptions{MemtableBytes: 1 << 30, DisableBlockCache: true}, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMPutGroupCommit measures durable writes under concurrency:
// every Put is acknowledged only after an fsync covers it, but parallel
// writers share fsyncs through the group-commit window. The reported
// syncs/op metric shows the batching factor.
func BenchmarkLSMPutGroupCommit(b *testing.B) {
	db, err := openLSM("bench", b.TempDir(), LSMOptions{MemtableBytes: 1 << 30, SyncWrites: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{7}, 256)
	var seq atomic.Int64
	// Force a real group even on one-CPU runners: batching comes from
	// concurrent waiters, not parallel execution.
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := []byte(fmt.Sprintf("key-%010d", seq.Add(1)))
			if err := db.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	appends, syncs := db.WALStats()
	if appends > 0 {
		b.ReportMetric(float64(syncs)/float64(appends), "syncs/op")
	}
}

// BenchmarkLSMScanKeys measures the streaming keys-only scan (ListKeys /
// Count path): bounded iterators, no value decode, no per-entry clones
// beyond the returned keys.
func BenchmarkLSMScanKeys(b *testing.B) {
	const n = 20000
	db, _ := benchTableDB(b, LSMOptions{MemtableBytes: 1 << 30}, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt, err := db.Count()
		if err != nil {
			b.Fatal(err)
		}
		if cnt != n {
			b.Fatalf("Count = %d, want %d", cnt, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "keys/scan")
}
