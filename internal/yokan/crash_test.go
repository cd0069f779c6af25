package yokan

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// lsmOp is one step of a recorded workload for crash-consistency checks.
type lsmOp struct {
	del bool
	key string
	val string
}

// applyOps replays a prefix of the workload into a model map.
func applyOps(ops []lsmOp, n int) map[string]string {
	m := map[string]string{}
	for _, op := range ops[:n] {
		if op.del {
			delete(m, op.key)
		} else {
			m[op.key] = op.val
		}
	}
	return m
}

// TestLSMCrashPointRecovery is the crash-consistency property: truncating
// the WAL at *any* byte boundary and reopening must yield exactly the
// state after some prefix of the applied operations — never a torn or
// reordered state. The recovered prefix length is read back by counting
// intact WAL records.
func TestLSMCrashPointRecovery(t *testing.T) {
	rng := stats.NewRNG(314)
	const nOps = 120
	ops := make([]lsmOp, nOps)
	for i := range ops {
		ops[i] = lsmOp{
			del: rng.Intn(5) == 0,
			key: fmt.Sprintf("k%02d", rng.Intn(30)),
			val: fmt.Sprintf("v%d", i),
		}
	}

	// Write the full workload once to learn the WAL length.
	master := t.TempDir()
	db, err := openLSM("t", master, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.del {
			if _, err := db.Erase([]byte(op.key)); err != nil {
				t.Fatal(err)
			}
		} else if err := db.Put([]byte(op.key), []byte(op.val)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	// The whole workload fits one WAL segment (nothing flushed).
	full, err := os.ReadFile(filepath.Join(master, walSegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Crash at a spread of byte offsets (every ~97 bytes plus edges).
	cuts := []int{0, 1, 7, len(full) - 1, len(full)}
	for off := 50; off < len(full); off += 97 {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		seg := filepath.Join(dir, walSegmentName(0))
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Count intact records the recovery will see.
		recovered := 0
		if err := replayWAL(seg, func(byte, []byte, []byte) error {
			recovered++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := applyOps(ops, recovered)

		re, err := openLSM("t", dir, DefaultLSMOptions())
		if err != nil {
			t.Fatalf("cut=%d: reopen failed: %v", cut, err)
		}
		if recs := re.RecoveryStats().Records; recs != recovered {
			t.Fatalf("cut=%d: RecoveryStats reports %d records, replay saw %d", cut, recs, recovered)
		}
		n, err := re.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("cut=%d: recovered %d keys, want %d (prefix %d)", cut, n, len(want), recovered)
		}
		for k, v := range want {
			got, err := re.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("cut=%d key %q: got %q %v, want %q", cut, k, got, err, v)
			}
		}
		re.Close()
	}
}

// TestLSMCrashAfterFlushKeepsTables verifies that a WAL crash cannot lose
// data that already reached an SSTable.
func TestLSMCrashAfterFlushKeepsTables(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("stable-%03d", i)), []byte("flushed"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("volatile-%03d", i)), []byte("wal-only"))
	}
	db.Close()

	// Obliterate every WAL segment — worst-case crash.
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range segs {
		if err := os.Remove(sp); err != nil {
			t.Fatal(err)
		}
	}
	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 100; i++ {
		if _, err := re.Get([]byte(fmt.Sprintf("stable-%03d", i))); err != nil {
			t.Fatalf("flushed key lost: %v", err)
		}
	}
	if _, err := re.Get([]byte("volatile-000")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("unflushed key should be gone with the WAL")
	}
}

// TestLSMCrashDuringCompactionKeepsDeletesDead is the regression test for
// the deletion-resurrection crash window. The old compaction wrote the
// merged table (which drops tombstones) and *then* removed the inputs; a
// crash in between left both generations on disk, and reopen would serve
// the deleted key from the old table because the merged one had no
// tombstone to shadow it. Under the manifest protocol the merged table is
// not live until the manifest commit, so a crash in that window leaves an
// orphan that reopen discards — and the tombstone stays in force.
func TestLSMCrashDuringCompactionKeepsDeletesDead(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30, CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Generation 0: the victim is live, flushed to its own table.
	if err := db.Put([]byte("victim"), []byte("live")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		db.Put([]byte(fmt.Sprintf("keep-%03d", i)), []byte("x"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Generation 1: the deletion, flushed as a tombstone-bearing table.
	if _, err := db.Erase([]byte("victim")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash inside the window: merged table durable at its final name,
	// manifest not yet updated, inputs not yet deleted.
	boom := errors.New("injected crash between merge output and manifest commit")
	db.afterCompactTable = func() error { return boom }
	if err := db.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact returned %v, want injected crash", err)
	}
	// Process death: no Close, the directory is reopened as-is.

	re, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30, CompactAt: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if orph := re.RecoveryStats().Orphans; orph == 0 {
		t.Fatal("the half-committed merge output was not discarded as an orphan")
	}
	if _, err := re.Get([]byte("victim")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("deleted key resurrected after mid-compaction crash: err=%v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := re.Get([]byte(fmt.Sprintf("keep-%03d", i))); err != nil {
			t.Fatalf("live key lost after mid-compaction crash: %v", err)
		}
	}
	// And the recovered store still compacts cleanly.
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Get([]byte("victim")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("deleted key resurrected by post-recovery compaction")
	}
}

// TestLSMCrashDuringFlushReplaysWAL covers the other crash window: the
// flushed table reached its final name but the crash hit before the
// manifest commit, so its WAL segments were never deleted. Reopen must
// drop the orphan table and rebuild the same data from the WAL — no loss,
// no duplication.
func TestLSMCrashDuringFlushReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected crash between flush output and manifest commit")
	db.afterFlushTable = func() error { return boom }
	if err := db.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush returned %v, want injected crash", err)
	}
	// Process death: reopen the directory as-is.

	re, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryStats()
	if ri.Orphans != 1 {
		t.Fatalf("reopen discarded %d orphans, want the 1 half-flushed table", ri.Orphans)
	}
	if ri.Tables != 0 {
		t.Fatalf("reopen adopted %d tables, want 0 (flush never committed)", ri.Tables)
	}
	if ri.Records != n {
		t.Fatalf("reopen replayed %d WAL records, want %d", ri.Records, n)
	}
	for i := 0; i < n; i++ {
		got, err := re.Get([]byte(fmt.Sprintf("k-%03d", i)))
		if err != nil || string(got) != fmt.Sprintf("v-%03d", i) {
			t.Fatalf("key %03d: got %q %v after mid-flush crash", i, got, err)
		}
	}
}

// TestLSMTornTableQuarantinedNotFatal is the regression test for the
// torn-SSTable brick: a table whose entry region fails its checksum used
// to make openLSM return an error, taking every database in the directory
// down with one bad file. Now the table is set aside as .bad, counted in
// RecoveryStats, and the store opens and serves everything else.
func TestLSMTornTableQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("flushed-%03d", i)), []byte("sst"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		db.Put([]byte(fmt.Sprintf("tail-%03d", i)), []byte("wal"))
	}
	db.Close()

	// Corrupt one byte inside the table's entry region (past the magic).
	ssts, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
	if err != nil || len(ssts) != 1 {
		t.Fatalf("want exactly 1 table, got %v (%v)", ssts, err)
	}
	raw, err := os.ReadFile(ssts[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[32] ^= 0xFF
	if err := os.WriteFile(ssts[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatalf("torn table must not brick the open: %v", err)
	}
	defer re.Close()
	ri := re.RecoveryStats()
	if ri.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", ri.Quarantined)
	}
	if ri.Tables != 0 {
		t.Fatalf("adopted %d tables, want 0", ri.Tables)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bad) != 1 {
		t.Fatalf("quarantined file not set aside as .bad: %v", bad)
	}
	// The quarantined table's data is set aside (anti-entropy re-syncs it
	// from replicas); the WAL tail and new writes still serve.
	if _, err := re.Get([]byte("flushed-000")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("quarantined data should be absent, got err=%v", err)
	}
	if got, err := re.Get([]byte("tail-000")); err != nil || string(got) != "wal" {
		t.Fatalf("WAL tail lost: %q %v", got, err)
	}
	if err := re.Put([]byte("new"), []byte("write")); err != nil {
		t.Fatal(err)
	}
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get([]byte("new")); err != nil || string(got) != "write" {
		t.Fatalf("store not writable after quarantine: %q %v", got, err)
	}
}

// TestLSMReopenIsTheLocalRejoinPath treats WAL replay-on-reopen as the
// local half of a server rejoin (ISSUE 5): a restarted LSM-backed daemon
// first rebuilds everything it held durably — reattached SSTables plus
// intact WAL records — and reports it through RecoveryStats, so operators
// (and the anti-entropy pass) can see how much state came back for free.
// Only writes missing from both need replay from surviving replicas.
func TestLSMReopenIsTheLocalRejoinPath(t *testing.T) {
	dir := t.TempDir()
	db, err := openLSM("t", dir, LSMOptions{MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if ri := db.RecoveryStats(); ri.Records != 0 || ri.Tables != 0 {
		t.Fatalf("fresh open recovered %d records, %d tables", ri.Records, ri.Tables)
	}
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("flushed-%03d", i)), []byte("sst"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("recent-%03d", i)), []byte("wal"))
	}
	db.Close() // a clean shutdown; the crash variants are covered above

	re, err := openLSM("t", dir, DefaultLSMOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryStats()
	if ri.Tables == 0 {
		t.Fatal("reopen reattached no SSTables")
	}
	if ri.Records != 50 {
		t.Fatalf("reopen replayed %d WAL records, want the 50 post-flush writes", ri.Records)
	}
	// The rejoin invariant: everything durable before the restart serves
	// again without any replica traffic.
	n, err := re.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("rejoined store has %d keys, want 150", n)
	}
}
