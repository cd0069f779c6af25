package yokan

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLSMFlushAndReadBack(t *testing.T) {
	db, err := openLSM("t", t.TempDir(), LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.TableCount() != 1 {
		t.Fatalf("tables = %d", db.TableCount())
	}
	// Reads now come from the SSTable.
	for i := 0; i < 500; i += 7 {
		got, err := db.Get([]byte(fmt.Sprintf("k%04d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d: %q %v", i, got, err)
		}
	}
	if _, err := db.Get([]byte("missing")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestLSMWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Erase([]byte("k050"))
	// Simulate a crash: close flushes the WAL buffer but writes no table.
	if db.TableCount() != 0 {
		t.Fatal("nothing should have been flushed yet")
	}
	db.Close()

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, _ := re.Count()
	if n != 99 {
		t.Fatalf("recovered %d keys, want 99", n)
	}
	if _, err := re.Get([]byte("k050")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("erased key resurrected by recovery")
	}
	got, err := re.Get([]byte("k099"))
	if err != nil || string(got) != "v" {
		t.Fatalf("k099 after recovery: %q %v", got, err)
	}
}

func TestLSMRecoveryWithTablesAndWAL(t *testing.T) {
	dir := t.TempDir()
	db, _ := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("old"))
	}
	db.Flush()
	// Overwrite some keys after the flush; these live only in the WAL.
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("new"))
	}
	db.Close()

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _ := re.Get([]byte("k010"))
	if string(got) != "new" {
		t.Fatalf("WAL entries must shadow older tables: %q", got)
	}
	got, _ = re.Get([]byte("k080"))
	if string(got) != "old" {
		t.Fatalf("table entries lost: %q", got)
	}
}

func TestLSMTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := openLSM("t", dir, DefaultLSMOptions())
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Close()

	// Corrupt the WAL by appending garbage (a torn final record) to the
	// newest segment.
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x99})
	f.Close()

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	n, _ := re.Count()
	if n != 50 {
		t.Fatalf("recovered %d keys despite torn tail, want 50", n)
	}
}

func TestLSMCompactionDropsGarbage(t *testing.T) {
	db, err := openLSM("t", t.TempDir(), LSMOptions{MemtableBytes: 1 << 30, CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Three generations of the same keys across three tables.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 100; i++ {
			db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("gen%d", gen)))
		}
		db.Flush()
	}
	// Delete a third of them.
	for i := 0; i < 100; i += 3 {
		db.Erase([]byte(fmt.Sprintf("k%03d", i)))
	}
	if db.TableCount() != 3 {
		t.Fatalf("tables before compaction = %d", db.TableCount())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.TableCount() != 1 {
		t.Fatalf("tables after compaction = %d", db.TableCount())
	}
	n, _ := db.Count()
	if n != 66 {
		t.Fatalf("count after compaction = %d, want 66", n)
	}
	// Latest generation survives; deleted keys stay dead.
	got, err := db.Get([]byte("k001"))
	if err != nil || string(got) != "gen2" {
		t.Fatalf("k001 = %q %v", got, err)
	}
	if _, err := db.Get([]byte("k000")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("tombstoned key resurrected by compaction")
	}
	flushes, compactions := db.Counters()
	if flushes < 3 || compactions != 1 {
		t.Fatalf("counters = %d flushes %d compactions", flushes, compactions)
	}
}

func TestLSMAutoFlushAndCompact(t *testing.T) {
	db, err := openLSM("t", t.TempDir(), LSMOptions{MemtableBytes: 4 << 10, CompactAt: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{1}, 128)
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Flushes and merges run as background jobs; a running job enqueues
	// its follow-up before it finishes, so one Wait drains the chain.
	db.jobs.Wait()
	flushes, compactions := db.Counters()
	if flushes == 0 {
		t.Fatal("no automatic flushes happened")
	}
	if compactions == 0 {
		t.Fatal("no automatic compactions happened")
	}
	if db.TableCount() >= 10 {
		t.Fatalf("compaction is not bounding table count: %d", db.TableCount())
	}
	n, _ := db.Count()
	if n != 2000 {
		t.Fatalf("count = %d", n)
	}
}

// TestLSMRefusesTablesWithoutManifest: the MANIFEST is written at first
// open, before any table exists, so a directory holding tables but no
// manifest was not written by this store. Opening it must fail with an
// error naming the directory and leave every file where it was.
func TestLSMRefusesTablesWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil || len(before) != 1 {
		t.Fatalf("want 1 table before reopen, got %v (%v)", before, err)
	}

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err == nil {
		re.Close()
		t.Fatal("opened a directory with tables but no manifest")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the directory %s", err, dir)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if len(after) != 1 || after[0] != before[0] {
		t.Fatalf("tables touched by the refused open: before %v, after %v", before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused open wrote a manifest: %v", err)
	}
}

func TestLSMScanAcrossSources(t *testing.T) {
	// Entries spread across two tables and the memtable, with overwrites
	// and tombstones; scan must present the merged, newest-wins view.
	db, err := openLSM("t", t.TempDir(), LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("a"), []byte("1-old"))
	db.Put([]byte("b"), []byte("1"))
	db.Flush()
	db.Put([]byte("a"), []byte("2-new"))
	db.Put([]byte("c"), []byte("2"))
	db.Flush()
	db.Put([]byte("d"), []byte("3"))
	db.Erase([]byte("b"))

	kvs, err := db.ListKeyVals(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "2-new", "c": "2", "d": "3"}
	if len(kvs) != len(want) {
		t.Fatalf("scan = %d entries: %v", len(kvs), kvs)
	}
	for _, kv := range kvs {
		if want[string(kv.Key)] != string(kv.Val) {
			t.Fatalf("kv %q=%q, want %q", kv.Key, kv.Val, want[string(kv.Key)])
		}
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.sst")
	var ents []entry
	for i := 0; i < 1000; i++ {
		ents = append(ents, entry{
			key:  []byte(fmt.Sprintf("key-%06d", i)),
			val:  []byte(fmt.Sprintf("val-%d", i)),
			tomb: i%17 == 0,
		})
	}
	if err := writeSSTable(path, ents, 16, 10); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(path, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.close()
	if tab.entries != 1000 {
		t.Fatalf("entries = %d", tab.entries)
	}
	for i := 0; i < 1000; i += 37 {
		key := []byte(fmt.Sprintf("key-%06d", i))
		e, present := tab.get(key)
		if !present {
			t.Fatalf("key %q missing", key)
		}
		if e.tomb != (i%17 == 0) {
			t.Fatalf("key %q tombstone flag wrong", key)
		}
	}
	if _, present := tab.get([]byte("zzz")); present {
		t.Fatal("phantom key found")
	}
	// Ordered full scan.
	var prev []byte
	n := 0
	tab.scanFrom(nil, func(e entry) bool {
		if prev != nil && bytes.Compare(prev, e.key) >= 0 {
			t.Fatalf("scan out of order at %q", e.key)
		}
		prev = append(prev[:0], e.key...)
		n++
		return true
	})
	if n != 1000 {
		t.Fatalf("scan visited %d", n)
	}
	// Partial scan from the middle.
	n = 0
	tab.scanFrom([]byte("key-000500"), func(e entry) bool { n++; return true })
	if n != 500 {
		t.Fatalf("scanFrom visited %d, want 500", n)
	}
}

func TestSSTableRejectsUnsortedInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sst")
	ents := []entry{{key: []byte("b")}, {key: []byte("a")}}
	if err := writeSSTable(path, ents, 16, 10); err == nil {
		t.Fatal("unsorted entries should be rejected")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("partial table should be removed")
	}
}

func TestSSTableCorruptionDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.sst")
	if err := writeSSTable(path, []entry{{key: []byte("a"), val: []byte("v")}}, 16, 10); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	// Truncated file.
	os.WriteFile(filepath.Join(dir, "short.sst"), raw[:8], 0o644)
	if _, err := openSSTable(filepath.Join(dir, "short.sst"), nil, true); err == nil {
		t.Fatal("truncated table should fail to open")
	}
	// Smashed footer magic.
	bad := append([]byte(nil), raw...)
	copy(bad[len(bad)-4:], "XXXX")
	os.WriteFile(filepath.Join(dir, "badmagic.sst"), bad, 0o644)
	if _, err := openSSTable(filepath.Join(dir, "badmagic.sst"), nil, true); err == nil {
		t.Fatal("bad footer magic should fail to open")
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("present-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("present-%d", i))) {
			t.Fatal("bloom filter false negative")
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// 10 bits/key should give ~1% false positives; allow 5%.
	if fp > 500 {
		t.Fatalf("bloom false positive rate too high: %d/10000", fp)
	}
}

func BenchmarkLSMPut(b *testing.B) {
	db, err := openLSM("bench", b.TempDir(), DefaultLSMOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{7}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%010d", i))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapPut(b *testing.B) {
	db := newMapDB("bench")
	defer db.Close()
	val := bytes.Repeat([]byte{7}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%010d", i))
		if err := db.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSMGet(b *testing.B) {
	db, err := openLSM("bench", b.TempDir(), DefaultLSMOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{7}, 256)
	const n = 100000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%010d", i)), val)
	}
	db.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%010d", i%n))
		if _, err := db.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapGet(b *testing.B) {
	db := newMapDB("bench")
	defer db.Close()
	val := bytes.Repeat([]byte{7}, 256)
	const n = 100000
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%010d", i)), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%010d", i%n))
		if _, err := db.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}
