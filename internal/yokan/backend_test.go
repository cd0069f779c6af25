package yokan

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// openTestBackends returns one instance of every backend type, pre-wired
// for cleanup. All conformance tests run against each.
func openTestBackends(t *testing.T) map[string]Backend {
	t.Helper()
	m := newMapDB("testmap")
	l, err := openLSM("testlsm", t.TempDir(), LSMOptions{
		// Small, so background flush and compaction jobs run while the
		// conformance checks read.
		MemtableBytes: 16 << 10,
		CompactAt:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		l.Close()
	})
	return map[string]Backend{"map": m, "lsm": l}
}

func TestBackendBasicOps(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			got, err := db.Get([]byte("k1"))
			if err != nil || string(got) != "v1" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			// Overwrite.
			db.Put([]byte("k1"), []byte("v2"))
			got, _ = db.Get([]byte("k1"))
			if string(got) != "v2" {
				t.Fatalf("overwrite lost: %q", got)
			}
			if _, err := db.Get([]byte("nope")); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("missing key: %v", err)
			}
			ok, _ := db.Exists([]byte("k1"))
			if !ok {
				t.Fatal("Exists(k1) = false")
			}
			ok, _ = db.Exists([]byte("nope"))
			if ok {
				t.Fatal("Exists(nope) = true")
			}
			erased, _ := db.Erase([]byte("k1"))
			if !erased {
				t.Fatal("Erase(k1) = false")
			}
			erased, _ = db.Erase([]byte("k1"))
			if erased {
				t.Fatal("double Erase(k1) = true")
			}
			if _, err := db.Get([]byte("k1")); !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("after erase: %v", err)
			}
			n, _ := db.Count()
			if n != 0 {
				t.Fatalf("count = %d", n)
			}
		})
	}
}

func TestBackendOrderedIteration(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			// Insert in reverse; expect ascending iteration — the property
			// HEPnOS's big-endian key design depends on.
			for i := 99; i >= 0; i-- {
				key := []byte(fmt.Sprintf("key-%03d", i))
				if err := db.Put(key, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := db.ListKeys(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 100 {
				t.Fatalf("got %d keys", len(keys))
			}
			for i := 1; i < len(keys); i++ {
				if bytes.Compare(keys[i-1], keys[i]) >= 0 {
					t.Fatalf("keys out of order at %d: %q >= %q", i, keys[i-1], keys[i])
				}
			}
		})
	}
}

func TestBackendPrefixAndFrom(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"a/1", "a/2", "a/3", "b/1", "b/2", "c/1"} {
				db.Put([]byte(k), []byte("v"))
			}
			keys, err := db.ListKeys(nil, []byte("b/"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 2 || string(keys[0]) != "b/1" || string(keys[1]) != "b/2" {
				t.Fatalf("prefix scan = %q", keys)
			}
			// Resume after a key (pagination pattern used by iterators).
			keys, _ = db.ListKeys([]byte("a/1"), []byte("a/"), 0)
			if len(keys) != 2 || string(keys[0]) != "a/2" {
				t.Fatalf("from scan = %q", keys)
			}
			// Max limit.
			keys, _ = db.ListKeys(nil, nil, 3)
			if len(keys) != 3 {
				t.Fatalf("max-limited scan returned %d", len(keys))
			}
			// KeyVals variant.
			kvs, err := db.ListKeyVals(nil, []byte("c/"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != 1 || string(kvs[0].Key) != "c/1" || string(kvs[0].Val) != "v" {
				t.Fatalf("keyvals = %+v", kvs)
			}
		})
	}
}

func TestBackendClosedErrors(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			db.Put([]byte("k"), []byte("v"))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrDBClosed) {
				t.Fatalf("Put after close: %v", err)
			}
			if _, err := db.Get([]byte("k")); !errors.Is(err, ErrDBClosed) {
				t.Fatalf("Get after close: %v", err)
			}
			if _, err := db.ListKeys(nil, nil, 0); !errors.Is(err, ErrDBClosed) {
				t.Fatalf("ListKeys after close: %v", err)
			}
		})
	}
}

// TestBackendMatchesModel drives both backends with a random operation
// sequence and checks them against a plain map + sort model.
func TestBackendMatchesModel(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(2024)
			model := make(map[string]string)
			const ops = 4000
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%03d", rng.Intn(300))
				switch rng.Intn(10) {
				case 0, 1: // erase
					delete(model, key)
					if _, err := db.Erase([]byte(key)); err != nil {
						t.Fatal(err)
					}
				default: // put
					val := fmt.Sprintf("v%d", i)
					model[key] = val
					if err := db.Put([]byte(key), []byte(val)); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Full equality: counts, values, ordering.
			n, err := db.Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(model) {
				t.Fatalf("count = %d, model has %d", n, len(model))
			}
			var wantKeys []string
			for k := range model {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			kvs, err := db.ListKeyVals(nil, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(kvs) != len(wantKeys) {
				t.Fatalf("scan returned %d keys, want %d", len(kvs), len(wantKeys))
			}
			for i, kv := range kvs {
				if string(kv.Key) != wantKeys[i] {
					t.Fatalf("key %d = %q, want %q", i, kv.Key, wantKeys[i])
				}
				if string(kv.Val) != model[wantKeys[i]] {
					t.Fatalf("val for %q = %q, want %q", kv.Key, kv.Val, model[wantKeys[i]])
				}
			}
		})
	}
}

func TestBackendConcurrentAccess(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			const writers, perWriter = 8, 200
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						key := []byte(fmt.Sprintf("w%d-%04d", w, i))
						if err := db.Put(key, key); err != nil {
							t.Error(err)
							return
						}
						if _, err := db.Get(key); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			// Concurrent scans must not crash or deadlock.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := db.ListKeys(nil, nil, 100); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			n, err := db.Count()
			if err != nil {
				t.Fatal(err)
			}
			if n != writers*perWriter {
				t.Fatalf("count = %d, want %d", n, writers*perWriter)
			}
		})
	}
}

func TestOpenBackendConfig(t *testing.T) {
	if _, err := OpenBackend(DBConfig{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	// "btree" was a backend once; a config that still names it must fail
	// at open, not fall back to something else.
	for _, typ := range []string{"rocksdb", "btree"} {
		_, err := OpenBackend(DBConfig{Name: "x", Type: typ})
		if err == nil || !strings.Contains(err.Error(), "unknown backend type") {
			t.Errorf("type %q: err = %v, want unknown backend type", typ, err)
		}
	}
	if _, err := OpenBackend(DBConfig{Name: "x", Type: "lsm"}); err == nil {
		t.Error("lsm without path should fail")
	}
	b, err := OpenBackend(DBConfig{Name: "x"})
	if err != nil || b.Type() != "map" {
		t.Fatalf("default backend: %v %v", b, err)
	}
	b.Close()
	b, err = OpenBackend(DBConfig{Name: "y", Type: "lsm", Path: t.TempDir()})
	if err != nil || b.Type() != "lsm" {
		t.Fatalf("lsm backend: %v %v", b, err)
	}
	b.Close()
}

func TestBackendLargeValues(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			// A few MB-scale products, like the paper's upper product size.
			val := bytes.Repeat([]byte{0xAB}, 2<<20)
			if err := db.Put([]byte("big"), val); err != nil {
				t.Fatal(err)
			}
			got, err := db.Get([]byte("big"))
			if err != nil || !bytes.Equal(got, val) {
				t.Fatalf("large value corrupted: len=%d err=%v", len(got), err)
			}
		})
	}
}

func TestBackendEmptyValue(t *testing.T) {
	// HEPnOS container keys have empty values; presence is existence.
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := db.Put([]byte("container"), nil); err != nil {
				t.Fatal(err)
			}
			ok, err := db.Exists([]byte("container"))
			if err != nil || !ok {
				t.Fatalf("empty-value key must exist: %v %v", ok, err)
			}
			got, err := db.Get([]byte("container"))
			if err != nil || len(got) != 0 {
				t.Fatalf("empty value: %q %v", got, err)
			}
		})
	}
}

func TestBackendGetOrPut(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			// First caller inserts.
			w, inserted, err := db.GetOrPut([]byte("ds"), []byte("uuid-A"))
			if err != nil || !inserted || string(w) != "uuid-A" {
				t.Fatalf("first: %q %v %v", w, inserted, err)
			}
			// Second caller loses and sees the winner.
			w, inserted, err = db.GetOrPut([]byte("ds"), []byte("uuid-B"))
			if err != nil || inserted || string(w) != "uuid-A" {
				t.Fatalf("second: %q %v %v", w, inserted, err)
			}
			// After erase, the key can be claimed again.
			if _, err := db.Erase([]byte("ds")); err != nil {
				t.Fatal(err)
			}
			w, inserted, err = db.GetOrPut([]byte("ds"), []byte("uuid-C"))
			if err != nil || !inserted || string(w) != "uuid-C" {
				t.Fatalf("after erase: %q %v %v", w, inserted, err)
			}
		})
	}
}

func TestBackendGetOrPutConcurrent(t *testing.T) {
	for name, db := range openTestBackends(t) {
		t.Run(name, func(t *testing.T) {
			const racers = 16
			winners := make([]string, racers)
			var wg sync.WaitGroup
			for i := 0; i < racers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					w, _, err := db.GetOrPut([]byte("contended"), []byte(fmt.Sprintf("cand-%02d", i)))
					if err != nil {
						t.Error(err)
						return
					}
					winners[i] = string(w)
				}(i)
			}
			wg.Wait()
			for i := 1; i < racers; i++ {
				if winners[i] != winners[0] {
					t.Fatalf("racers disagree: %q vs %q", winners[0], winners[i])
				}
			}
		})
	}
}
