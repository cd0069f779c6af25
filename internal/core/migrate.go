package core

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Live key-range migration (DESIGN.md §18): the data-plane half of the
// autopilot's plan → copy → verify → epoch-bump → retire state machine,
// run against a serving datastore:
//
//   - BeginMigration installs the target view as the alternate, turning on
//     dual-write (every write lands in both views' replica sets) and
//     dual-read (the other view's copies are last-resort read fallbacks);
//   - CopyToView walks the committed view and copies every key to its
//     replica set under the target view, respecting the replication factor;
//   - VerifyView re-walks and repairs any copy the target is missing
//     (writes that raced the copy are already there via dual-write);
//   - CommitMigration atomically swaps the committed view — the epoch bump
//     — and keeps the outgoing view as the alternate so in-flight readers
//     retain their fallbacks until RetireView;
//   - RetireView erases keys from outgoing databases that hold no replica
//     claim under the committed view, then closes the migration window;
//   - AbortMigration rolls back before commit: the alternate view is
//     dropped, the committed view stays authoritative, and any copies
//     already landed on the target are inert (rediscovered idempotently by
//     a retry, or destroyed with the abandoned servers).
//
// Every step is idempotent, so the crash-safe retry loop lives one layer
// up, in internal/autopilot. The copy path assumes the HEPnOS data model's
// write-once keys: a key rewritten with a *different* value during the
// copy window may finish with either value on the target.
//
// Copy, verify, retire and the anti-entropy ResyncServer are all passes of
// one key-walk (walkKeys): every key of every source database, its
// candidate parents, its replica sets under the source and target views,
// and an action on the difference.

// Migration lifecycle errors, classified for the autopilot's retry logic.
var (
	// ErrMigrationActive rejects a second BeginMigration while a window is
	// open (conflict: not retryable, the caller must abort or finish first).
	ErrMigrationActive = xerr.Sentinel("hepnos/migration_active", xerr.ClassConflict, "hepnos: a migration is already active")
	// ErrNoMigration rejects commit/retire/abort outside a window.
	ErrNoMigration = xerr.Sentinel("hepnos/no_migration", xerr.ClassInvalid, "hepnos: no migration is active")
	// ErrEpochRegression rejects a target view whose membership epoch is
	// not ahead of the committed view's — committing it would resurrect a
	// superseded deployment.
	ErrEpochRegression = xerr.Sentinel("hepnos/epoch_regression", xerr.ClassInvalid, "hepnos: target view epoch must exceed the committed epoch")
)

// productKeyPrefixLens are the plausible container-key lengths embedded in
// a product key (dataset, run, subrun, event). Product keys do not
// self-describe their container length, so placement probes all of them.
// False-positive interpretations produce harmless idempotent copies.
var productKeyPrefixLens = []int{
	keys.UUIDLen,
	keys.UUIDLen + 1*keys.NumLen,
	keys.UUIDLen + 2*keys.NumLen,
	keys.UUIDLen + 3*keys.NumLen,
}

// CopyStats reports one key-walk pass — a migration copy or verify, or an
// anti-entropy resync — per role.
type CopyStats struct {
	// Scanned counts keys examined on source databases; Copied counts
	// copies written to target databases (under verify: copies found
	// missing and repaired; under resync: keys replayed).
	Scanned map[string]int
	Copied  map[string]int
	// Checked counts the target copies a verify pass probed.
	Checked int
}

// total sums a per-role map.
func total(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// TotalScanned returns all keys examined.
func (s CopyStats) TotalScanned() int { return total(s.Scanned) }

// TotalCopied returns all copies written.
func (s CopyStats) TotalCopied() int { return total(s.Copied) }

// walkBatch bounds the keys per page (and so per copy RPC) of a key-walk.
const walkBatch = 1024

// migrationRole pairs one role's source and target database sets with the
// rule recovering the parent keys that place a stored key.
type migrationRole struct {
	name string
	src  []yokan.DBHandle
	dst  []yokan.DBHandle
	// parents returns the candidate parent keys placing key (several for
	// products, whose container length is not self-describing).
	parents func(key []byte) [][]byte
}

func migrationRoles(src, dst *View) []migrationRole {
	containerParent := func(key []byte) [][]byte {
		ck, err := keys.ParseContainerKey(key)
		if err != nil {
			return nil
		}
		parent, ok := ck.Parent()
		if !ok {
			return nil
		}
		return [][]byte{parent.Bytes()}
	}
	productParents := func(key []byte) [][]byte {
		if bytes.HasPrefix(key, []byte(pageGroupMarker)) {
			// Columnar page keys are placed by the subrun key that
			// follows the marker (pages.go), not by a key prefix.
			end := len(pageGroupMarker) + keys.UUIDLen + 2*keys.NumLen
			if len(key) < end {
				return nil
			}
			return [][]byte{key[len(pageGroupMarker):end]}
		}
		var out [][]byte
		for _, l := range productKeyPrefixLens {
			if len(key) > l {
				out = append(out, key[:l])
			}
		}
		return out
	}
	return []migrationRole{
		{"datasets", src.DatasetDBs, dst.DatasetDBs, func(key []byte) [][]byte {
			return [][]byte{[]byte(parentPath(string(key)))}
		}},
		{"runs", src.RunDBs, dst.RunDBs, containerParent},
		{"subruns", src.SubrunDBs, dst.SubrunDBs, containerParent},
		{"events", src.EventDBs, dst.EventDBs, containerParent},
		{"products", src.ProductDBs, dst.ProductDBs, productParents},
	}
}

// MigrationRangeCount returns how many (role, database) source ranges a
// copy pass over the committed view walks — the denominator for progress
// reporting.
func (ds *DataStore) MigrationRangeCount() int {
	v := ds.v()
	return len(v.DatasetDBs) + len(v.RunDBs) + len(v.SubrunDBs) + len(v.EventDBs) + len(v.ProductDBs)
}

// BeginMigration opens a migration window toward target: dual-write and
// dual-read turn on immediately. The target view must carry a strictly
// newer membership epoch than the committed view (the epoch the commit
// will adopt) and use compatible role sets. Fails with ErrMigrationActive
// if a window is already open.
func (ds *DataStore) BeginMigration(target *View) error {
	if ds.closed.Load() {
		return ErrClosed
	}
	if target == nil {
		return xerr.New(xerr.ClassInvalid, "hepnos: migration target view is nil")
	}
	if r := target.emptyRole(); r != "" {
		return xerr.Newf(xerr.ClassInvalid, "hepnos: migration target has no %s databases", r)
	}
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	vp := ds.views.Load()
	if vp.alt != nil {
		return ErrMigrationActive
	}
	if target.Group.Epoch <= vp.committed.Group.Epoch {
		return xerr.Wrap(ErrEpochRegression,
			fmt.Sprintf("target epoch %d, committed epoch %d", target.Group.Epoch, vp.committed.Group.Epoch))
	}
	ds.views.Store(&viewPair{committed: vp.committed, alt: target})
	return nil
}

// AltView returns the migration window's alternate view (nil outside a
// window): the target before commit, the outgoing view after.
func (ds *DataStore) AltView() *View { return ds.views.Load().alt }

// AbortMigration rolls a not-yet-committed migration back: the alternate
// view is dropped, restoring single-view operation on the committed view.
// Copies already landed on the target are inert — unreachable through the
// committed view, rewritten idempotently by a retry, or destroyed with the
// abandoned destination servers.
func (ds *DataStore) AbortMigration() error {
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	vp := ds.views.Load()
	if vp.alt == nil {
		return ErrNoMigration
	}
	if vp.alt.Group.Epoch <= vp.committed.Group.Epoch {
		// The alternate is the *outgoing* view: the migration already
		// committed, rollback is no longer possible, only retire.
		return xerr.New(xerr.ClassConflict, "hepnos: migration already committed; retire instead of abort")
	}
	ds.views.Store(&viewPair{committed: vp.committed})
	return nil
}

// walkKeys is the one key-walk every migration-shaped pass runs on: for each
// role and each of its source databases (unless skip rejects it), page the
// stored keys — with values when the pass copies, keys alone otherwise —
// and hand every page to the pass. The walk rides the batch QoS class so
// interactive reads keep their latency SLO, under one span named after op.
// onRange, when non-nil, observes progress after each (role, database)
// range.
func (ds *DataStore) walkKeys(ctx context.Context, op string, roles []migrationRole, withVals bool,
	skip func(migrationRole, yokan.DBHandle) bool, onRange func(role string, done, total int),
	page func(ctx context.Context, r migrationRole, db yokan.DBHandle, kvs []yokan.KV) error) (err error) {
	ctx = qos.WithClass(ctx, qos.ClassBatch)
	sp := ds.tracer.Start("core:"+op, obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	defer func() { sp.End(err) }()

	rangesTotal := 0
	for _, r := range roles {
		rangesTotal += len(r.src)
	}
	done := 0
	for _, r := range roles {
		for _, db := range r.src {
			from, more := []byte(nil), !skip(r, db)
			for more {
				var kvs []yokan.KV
				if withVals {
					kvs, err = ds.yc.ListKeyVals(ctx, db, from, nil, walkBatch)
				} else {
					var ks [][]byte
					ks, err = ds.yc.ListKeys(ctx, db, from, nil, walkBatch)
					kvs = make([]yokan.KV, len(ks))
					for i, k := range ks {
						kvs[i].Key = k
					}
				}
				if err != nil {
					return fmt.Errorf("hepnos: %s scan %s: %w", op, db, err)
				}
				if len(kvs) > 0 {
					if err = page(ctx, r, db, kvs); err != nil {
						return err
					}
					from = kvs[len(kvs)-1].Key
				}
				more = len(kvs) == walkBatch
			}
			done++
			if onRange != nil {
				onRange(r.name, done, rangesTotal)
			}
		}
	}
	return nil
}

// reconcile is the copy-shaped pass: every key the src view holds is written
// to each member of its dst-view replica set that does not hold it yet.
//
// A key's holders are its src-view replicas minus any on the stale server —
// a rejoined server whose databases missed writes (ResyncServer); empty for
// a migration. The first holder in read order performs the copy (the others
// skip it), so under RF ≥ 2 a source death shifts its share of the work to
// the surviving replicas; an unusable source is skipped outright when other
// replicas exist to cover for it. With probe set the pass first asks each
// target which keys it lacks and writes only those (verify = copy with an
// Exists probe). Copies are idempotent puts of write-once keys, so a
// partial pass reruns safely and no quiescence is needed.
func (ds *DataStore) reconcile(ctx context.Context, op string, src, dst *View, stale fabric.Address, probe bool,
	copied *atomic.Int64, onRange func(role string, done, total int)) (CopyStats, error) {
	st := CopyStats{Scanned: map[string]int{}, Copied: map[string]int{}}
	if ds.closed.Load() {
		return st, ErrClosed
	}
	skip := func(_ migrationRole, db yokan.DBHandle) bool {
		return db.Addr == stale || ds.rf > 1 && !ds.health.Usable(string(db.Addr))
	}
	type batch struct{ keys, vals [][]byte }
	err := ds.walkKeys(ctx, op, migrationRoles(src, dst), true, skip, onRange,
		func(ctx context.Context, r migrationRole, db yokan.DBHandle, kvs []yokan.KV) error {
			byTarget := map[yokan.DBHandle]*batch{}
			for _, kv := range kvs {
				st.Scanned[r.name]++
				for _, parent := range r.parents(kv.Key) {
					holders := ds.replicasFor(r.src, parent)
					if stale != "" {
						holders = withoutServer(holders, stale)
					}
					if !containsDB(holders, db) || ds.readOrder(holders)[0] != db {
						continue // not this database's key to copy
					}
					for _, t := range ds.replicasFor(r.dst, parent) {
						if containsDB(holders, t) {
							continue // the target already holds this key
						}
						b := byTarget[t]
						if b == nil {
							b = &batch{}
							byTarget[t] = b
						}
						b.keys = append(b.keys, kv.Key)
						b.vals = append(b.vals, kv.Val)
					}
				}
			}
			for t, b := range byTarget {
				if probe {
					found, err := ds.yc.Exists(ctx, t, b.keys)
					if err != nil {
						return fmt.Errorf("hepnos: %s probe %s: %w", op, t, err)
					}
					st.Checked += len(found)
					missing := batch{}
					for i, ok := range found {
						if !ok {
							missing.keys = append(missing.keys, b.keys[i])
							missing.vals = append(missing.vals, b.vals[i])
						}
					}
					b = &missing
				}
				if len(b.keys) == 0 {
					continue
				}
				if err := ds.yc.PutMulti(ctx, t, b.keys, b.vals); err != nil {
					return fmt.Errorf("hepnos: %s copy to %s: %w", op, t, err)
				}
				st.Copied[r.name] += len(b.keys)
				copied.Add(int64(len(b.keys)))
			}
			return nil
		})
	return st, err
}

// CopyToView copies every key reachable through the committed view to its
// replica set under target. onRange, when non-nil, observes progress after
// each (role, database) source range completes. Idempotent: a partial pass
// rerun re-copies the same byte-identical values.
func (ds *DataStore) CopyToView(ctx context.Context, target *View, onRange func(role string, done, total int)) (CopyStats, error) {
	return ds.reconcile(ctx, "migrate_copy", ds.v(), target, "", false, &ds.migrationCopied, onRange)
}

// VerifyView re-walks the committed view, checks that every key exists on
// every member of its target-view replica set, and repairs the copies the
// target is missing (writes that raced the copy are already there via
// dual-write). It returns the number of key-copies checked and repaired;
// repaired == 0 means the target holds a complete image.
func (ds *DataStore) VerifyView(ctx context.Context, target *View) (checked, repaired int, err error) {
	st, err := ds.reconcile(ctx, "migrate_verify", ds.v(), target, "", true, &ds.migrationRepaired, nil)
	return st.Checked, st.TotalCopied(), err
}

// ResyncServer is the anti-entropy pass for a rejoined server (ISSUE 5): a
// migration of the committed view onto itself whose targets are restricted
// to the databases at addr, replaying from the surviving replicas every key
// the server should hold but may have missed while it was down. It needs a
// replication factor of at least 2 — with rf 1 a dead server's keys have no
// surviving copy to replay from. On success the health tracker marks the
// server resynced (Rejoined → Alive) and reads prefer it again.
func (ds *DataStore) ResyncServer(ctx context.Context, addr fabric.Address) (CopyStats, error) {
	if ds.rf <= 1 {
		return CopyStats{}, fmt.Errorf("hepnos: resync %s: replication factor is 1, nothing to replay from", addr)
	}
	v := ds.v()
	st, err := ds.reconcile(ctx, "resync", v, v, addr, false, &ds.resyncReplayed, nil)
	if err == nil {
		ds.health.MarkResynced(string(addr))
	}
	return st, err
}

// containsDB reports whether the replica set includes db.
func containsDB(set []yokan.DBHandle, db yokan.DBHandle) bool {
	for _, d := range set {
		if d == db {
			return true
		}
	}
	return false
}

// withoutServer returns set minus the databases hosted at addr.
func withoutServer(set []yokan.DBHandle, addr fabric.Address) []yokan.DBHandle {
	out := make([]yokan.DBHandle, 0, len(set))
	for _, db := range set {
		if db.Addr != addr {
			out = append(out, db)
		}
	}
	return out
}

// CommitMigration atomically swaps the committed view to target — the
// client-side half of the epoch bump. The outgoing view stays installed as
// the alternate (dual-read fallback for in-flight cursors) until RetireView
// closes the window. The prober and health tracker are re-pointed at the
// new membership.
func (ds *DataStore) CommitMigration(target *View) error {
	if ds.closed.Load() {
		return ErrClosed
	}
	ds.migMu.Lock()
	defer ds.migMu.Unlock()
	vp := ds.views.Load()
	if vp.alt != target {
		return xerr.New(xerr.ClassInvalid, "hepnos: commit target is not the active migration's view")
	}
	outgoing := vp.committed
	if target.Group.Epoch <= outgoing.Group.Epoch {
		return xerr.Wrap(ErrEpochRegression,
			fmt.Sprintf("target epoch %d, committed epoch %d", target.Group.Epoch, outgoing.Group.Epoch))
	}
	ds.views.Store(&viewPair{committed: target, alt: outgoing})
	ds.viewGen.Add(1)
	ds.refreshMembership(outgoing, target)
	return nil
}

// refreshMembership re-points the prober and tracker at the committed
// membership after a view swap. Called under migMu.
func (ds *DataStore) refreshMembership(outgoing, committed *View) {
	current := make([]string, len(committed.Group.Servers))
	inNew := map[string]bool{}
	for i, srv := range committed.Group.Servers {
		current[i] = srv.Address
		inNew[srv.Address] = true
	}
	if ds.prober != nil {
		ds.prober.SetTargets(current)
	} else {
		ds.health.Watch(current...)
	}
	// Drained servers stop counting against the unusable budget the moment
	// they leave the membership.
	for _, srv := range outgoing.Group.Servers {
		if !inNew[srv.Address] {
			ds.health.Forget(srv.Address)
		}
	}
}

// RetireView closes a committed migration window: keys on outgoing-view
// databases that hold no replica claim under the committed view are erased
// (skipping databases on servers that already left the membership — they
// are about to be shut down wholesale), and the alternate view is cleared,
// ending dual-read. Returns the number of keys erased.
func (ds *DataStore) RetireView(ctx context.Context) (int, error) {
	if ds.closed.Load() {
		return 0, ErrClosed
	}
	ds.migMu.Lock()
	vp := ds.views.Load()
	outgoing, committed := vp.alt, vp.committed
	if outgoing == nil {
		ds.migMu.Unlock()
		return 0, ErrNoMigration
	}
	if outgoing.Group.Epoch >= committed.Group.Epoch {
		ds.migMu.Unlock()
		return 0, xerr.New(xerr.ClassConflict, "hepnos: migration not committed; abort instead of retire")
	}
	ds.migMu.Unlock()

	inMembership := map[fabric.Address]bool{}
	for _, srv := range committed.Group.Servers {
		inMembership[fabric.Address(srv.Address)] = true
	}
	// Walk only outgoing databases that survive into the committed view;
	// one on a server that left the membership dies with its server.
	skip := func(r migrationRole, db yokan.DBHandle) bool {
		return !inMembership[db.Addr] || !containsDB(r.dst, db)
	}
	erased := 0
	err := ds.walkKeys(ctx, "migrate_retire", migrationRoles(outgoing, committed), false, skip, nil,
		func(ctx context.Context, r migrationRole, db yokan.DBHandle, kvs []yokan.KV) error {
			// Erase the keys whose committed replica sets exclude db.
			var drop [][]byte
			for _, kv := range kvs {
				claimed := false
				for _, parent := range r.parents(kv.Key) {
					if containsDB(ds.replicasFor(r.dst, parent), db) {
						claimed = true
						break
					}
				}
				if !claimed {
					drop = append(drop, kv.Key)
				}
			}
			if len(drop) == 0 {
				return nil
			}
			if _, err := ds.yc.Erase(ctx, db, drop); err != nil {
				return fmt.Errorf("hepnos: migrate_retire erase from %s: %w", db, err)
			}
			erased += len(drop)
			ds.migrationErased.Add(int64(len(drop)))
			return nil
		})
	if err != nil {
		return erased, err
	}
	ds.migMu.Lock()
	// Only clear if the window is still ours (a concurrent begin is
	// impossible while alt is non-nil, but stay defensive).
	if vp := ds.views.Load(); vp.alt == outgoing {
		ds.views.Store(&viewPair{committed: vp.committed})
	}
	ds.viewGen.Add(1)
	ds.migMu.Unlock()
	return erased, nil
}

// GroupEpoch returns the committed view's membership epoch.
func (ds *DataStore) GroupEpoch() uint64 { return ds.v().Group.Epoch }

// Group returns the committed view's membership document.
func (ds *DataStore) Group() bedrock.GroupFile { return ds.v().Group }
