package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/health"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// This file is the replication and failover layer (ISSUE 5): every key is
// written to its placement primary plus rf−1 successor databases on
// *distinct servers*, and reads consult the health tracker to route around
// suspect/dead primaries. The successor walk mirrors chash.Ring.Successors:
// starting from the placement index, take the next databases in index order,
// skipping databases co-located with an already-chosen server — BuildConfigs
// lays each server's databases out contiguously, so a naive +1 walk would
// put both copies on the same host.

// replicasFor returns the databases holding copies of keys placed by
// parentKey within one role set: the placement primary first, then up to
// rf−1 successors on distinct servers. With rf=1 (or a single database) it
// degenerates to the classic single-home placement.
func (ds *DataStore) replicasFor(dbs []yokan.DBHandle, parentKey []byte) []yokan.DBHandle {
	primary := ds.placement.placer(len(dbs)).Place(parentKey)
	if ds.rf <= 1 || len(dbs) == 1 {
		return []yokan.DBHandle{dbs[primary]}
	}
	out := make([]yokan.DBHandle, 0, ds.rf)
	out = append(out, dbs[primary])
	used := map[fabric.Address]bool{dbs[primary].Addr: true}
	for step := 1; step < len(dbs) && len(out) < ds.rf; step++ {
		db := dbs[(primary+step)%len(dbs)]
		if used[db.Addr] {
			continue
		}
		used[db.Addr] = true
		out = append(out, db)
	}
	return out
}

// role names one database role of a view.
type role uint8

const (
	roleDatasets role = iota
	roleRuns
	roleSubruns
	roleEvents
	roleProducts
)

// of returns the view's databases of the role.
func (r role) of(v *View) []yokan.DBHandle {
	return [...][]yokan.DBHandle{v.DatasetDBs, v.RunDBs, v.SubrunDBs, v.EventDBs, v.ProductDBs}[r]
}

// place says where a key goes: the databases of a role, chosen by the
// parent key that places it (§II-C). A dataset's key places its runs, a
// run's its subruns, a subrun's its events and columnar pages, and any
// container's its row products. Writes carry a place, never a replica set:
// the set is resolved when the write is sent, against the views current
// then.
type place struct {
	role   role
	parent []byte
}

// replicasIn resolves p's replica set under one snapshot of the views. It
// is the committed view's replicas and, during a live migration (DESIGN.md
// §18), the alternate view's after them (deduped): writes land in both
// views, so nothing written in the window is lost across the epoch bump,
// and reads keep the committed view's read owner — the PEP exactly-once
// dedup relies on it — with the other copies as last-resort fallbacks.
func (ds *DataStore) replicasIn(vp *viewPair, p place) []yokan.DBHandle {
	out := ds.replicasFor(p.role.of(vp.committed), p.parent)
	if vp.alt == nil {
		return out
	}
	for _, db := range ds.replicasFor(p.role.of(vp.alt), p.parent) {
		if !containsDB(out, db) {
			out = append(out, db)
		}
	}
	return out
}

// replicas resolves p's replica set under the current views.
func (ds *DataStore) replicas(p place) []yokan.DBHandle {
	return ds.replicasIn(ds.views.Load(), p)
}

// resolver re-resolves p's replica set on every call, for replicaRead.
func (ds *DataStore) resolver(p place) func() []yokan.DBHandle {
	return func() []yokan.DBHandle { return ds.replicas(p) }
}

// readOrder reorders a replica set for reading: Alive servers first, then
// Rejoined (reachable but possibly missing writes until anti-entropy
// finishes), then whatever is left as a last resort — asking a Suspect
// server beats returning an error. Placement order is preserved within each
// class, so all clients with a converged health view agree on the first
// element (the read owner, which the PEP scan dedup relies on).
func (ds *DataStore) readOrder(replicas []yokan.DBHandle) []yokan.DBHandle {
	if len(replicas) <= 1 || ds.health.StateOf(string(replicas[0].Addr)) == health.Alive {
		return replicas
	}
	out := make([]yokan.DBHandle, 0, len(replicas))
	for _, want := range []health.State{health.Alive, health.Rejoined} {
		for _, db := range replicas {
			if ds.health.StateOf(string(db.Addr)) == want {
				out = append(out, db)
			}
		}
	}
	for _, db := range replicas {
		if ds.health.Usable(string(db.Addr)) {
			continue
		}
		out = append(out, db)
	}
	return out
}

// routable reports whether err is a failure failover may route around:
// anything classified unavailable — a local transport fault (drop,
// unreachable, open breaker) or a remote per-replica condition such as a
// closed database. Definitive answers (not_found, conflict, invalid) and
// the caller's own cancellation are not routable: another replica would
// say the same thing.
func routable(err error) bool {
	return xerr.IsUnavailable(err)
}

// localTransport reports whether err means the target server never
// answered — unavailable with no remote mark. Only these condemn the
// server in the health tracker and qualify for tolerated write drops: a
// remote-marked unavailable (say, ErrDBClosed from a live provider) proves
// the server is up, so counting it against health would trigger failover
// storms against healthy hosts.
func localTransport(err error) bool {
	return xerr.IsUnavailable(err) && !xerr.IsRemote(err)
}

// noteReadFailure feeds a failed replica read into the health tracker.
func (ds *DataStore) noteReadFailure(db yokan.DBHandle, err error) {
	if localTransport(err) {
		ds.health.ReportFailure(string(db.Addr))
	}
}

// countFailover bumps the failover counter when a read was served by a
// database other than its placement primary.
func (ds *DataStore) countFailover(primary, used yokan.DBHandle) {
	if used != primary {
		ds.failoverReads.Add(1)
	}
}

// softMiss reports whether a not-found answer from a single replica may be
// stale rather than authoritative. On a quiet cluster every usable replica
// holds the same keys, so the first answer settles it. During a live
// migration (DESIGN.md §18) that is no longer true: an outgoing database
// may have been retired (its unclaimed keys erased) between the moment the
// replica set was resolved and the read, and a target database may not have
// received its copy yet. Both hazards are visible here — the window is open
// (alt non-nil) or the resolved set is wider than rf, the fingerprint of a
// union set resolved while the window was still open — and in either case
// a miss only counts when every replica in the set agrees.
func (ds *DataStore) softMiss(replicas []yokan.DBHandle) bool {
	return len(replicas) > ds.rf || ds.views.Load().alt != nil
}

// missRetries bounds the re-resolve loop in replicaRead: a migration
// commits at most once per window, so one retry usually settles it; the
// bound only guards against back-to-back topology changes.
const missRetries = 3

// failedOver classifies a failed replica read, the one step every read path
// (replicaRead and the Prefetcher's grouped fan-out) takes its fallback and
// health bookkeeping from: a routable failure is fed to the health tracker
// and reports true — try the next copy; anything else is definitive and
// reports false — another replica would say the same thing.
func (ds *DataStore) failedOver(db yokan.DBHandle, err error) bool {
	if !routable(err) {
		return false
	}
	ds.noteReadFailure(db, err)
	return true
}

// replicaRead is the one generation-guarded failover read; point gets,
// existence probes, key-listing pages and scan pages all instantiate it
// (DESIGN.md §18). try asks a single replica and reports whether its answer
// was a hit — a value, a present key, a page — or a miss.
//
// The replica set comes from resolve, never from a caller's stored slice,
// and is tried in read order: a routable failure moves on to the next copy,
// any other error is definitive. The first answer settles the read, except
// that across a migration window (softMiss) a miss keeps going until some
// copy hits or every copy agrees — and a miss mixed with a routable failure
// stays a failure, because the unreachable copy might have held the key.
//
// CommitMigration bumps viewGen before RetireView erases anything, so a
// call during which viewGen did not move saw no half-retired copy. When it
// did move, the outcome — answer or error, a drained server may be shutting
// down under the call — is discarded and the read re-resolved against the
// new committed view; pages are addressed by replica-independent resume
// keys, which makes the re-fetch exact.
func replicaRead[T any](ctx context.Context, ds *DataStore, resolve func() []yokan.DBHandle,
	try func(context.Context, yokan.DBHandle) (T, bool, error)) (T, bool, error) {
	var zero T
	for attempt := 0; ; attempt++ {
		gen := ds.viewGen.Load()
		replicas := resolve()
		soft := ds.softMiss(replicas)
		var (
			out      T
			hit      bool
			answered bool
			failure  error
		)
		for _, db := range ds.readOrder(replicas) {
			v, ok, err := try(ctx, db)
			if err != nil {
				failure = err
				if ds.failedOver(db, err) {
					continue
				}
				break // definitive: no other copy is asked
			}
			if !answered {
				answered = true
				ds.countFailover(replicas[0], db)
			}
			out, hit = v, ok
			if hit || !soft {
				failure = nil
				break
			}
		}
		if ds.viewGen.Load() != gen && attempt < missRetries {
			continue
		}
		if failure != nil {
			return zero, false, failure
		}
		return out, hit, nil
	}
}

// get reads one key's value; hit is false when no replica holds it.
func (ds *DataStore) get(ctx context.Context, resolve func() []yokan.DBHandle, key []byte) ([]byte, bool, error) {
	return replicaRead(ctx, ds, resolve, func(ctx context.Context, db yokan.DBHandle) ([]byte, bool, error) {
		data, err := ds.yc.Get(ctx, db, key)
		if errors.Is(err, yokan.ErrKeyNotFound) {
			return nil, false, nil
		}
		return data, err == nil, err
	})
}

// has reports whether any replica holds key.
func (ds *DataStore) has(ctx context.Context, resolve func() []yokan.DBHandle, key []byte) (bool, error) {
	ks := [][]byte{key}
	found, _, err := replicaRead(ctx, ds, resolve, func(ctx context.Context, db yokan.DBHandle) (bool, bool, error) {
		found, err := ds.yc.Exists(ctx, db, ks)
		if err != nil {
			return false, false, err
		}
		return found[0], found[0], nil
	})
	return found, err
}

// keyPager lists the keys under prefix in one replica set, a page per
// next call.
type keyPager struct {
	ds      *DataStore
	resolve func() []yokan.DBHandle
	prefix  []byte
	size    int
	from    []byte // resume key: the last key already delivered
	done    bool   // the listing is exhausted
}

// next fetches the next page. A short page ends the listing.
func (p *keyPager) next(ctx context.Context) ([][]byte, error) {
	if p.ds.closed.Load() {
		return nil, ErrClosed
	}
	page, _, err := replicaRead(ctx, p.ds, p.resolve, func(ctx context.Context, db yokan.DBHandle) ([][]byte, bool, error) {
		page, err := p.ds.yc.ListKeys(ctx, db, p.from, p.prefix, p.size)
		return page, err == nil, err
	})
	if err != nil {
		return nil, err
	}
	if len(page) > 0 {
		p.from = page[len(page)-1]
	}
	p.done = len(page) < p.size
	return page, nil
}

// committedReplicas resolves the replica set of a page read (key listing or
// scan) for keys placed by p: the committed view's replicas only. Unlike
// replicas it does not union in the migration alternate — a page has no
// "miss" another copy could overrule, and the alternate's copy of a key
// range is incomplete until the window closes.
func (ds *DataStore) committedReplicas(p place) []yokan.DBHandle {
	return ds.replicasFor(p.role.of(ds.v()), p.parent)
}

// pager lists the keys under prefix held by p's committed replica set.
func (ds *DataStore) pager(p place, prefix []byte, size int) keyPager {
	return keyPager{
		ds:      ds,
		resolve: func() []yokan.DBHandle { return ds.committedReplicas(p) },
		prefix:  prefix,
		size:    size,
	}
}

// oneDB resolves to a single fixed database, for per-database enumerations
// (the PEP loader, the product census) that page one copy on purpose.
func oneDB(db yokan.DBHandle) func() []yokan.DBHandle {
	return func() []yokan.DBHandle { return []yokan.DBHandle{db} }
}

// writeTolerable decides whether a failed replica write may be dropped
// rather than surfaced. Four conditions: replication must be on; the
// failure must be transport-class; the target server must be unusable once
// the failure itself is counted (so a breaker-opened or probed-dead server
// qualifies immediately); and fewer servers must be unusable than the
// replication factor — past that point some keys may have lost every copy,
// so losses must surface as errors instead. Dropped copies are replayed by
// ResyncServer when the server rejoins.
func (ds *DataStore) writeTolerable(db yokan.DBHandle, err error) bool {
	if ds.rf <= 1 || !localTransport(err) {
		return false
	}
	target := string(db.Addr)
	ds.health.ReportFailure(target)
	if ds.health.Usable(target) {
		return false
	}
	return ds.health.UnusableCount() < ds.rf
}

// replicatedPut writes one key to every database of its replica set,
// resolved when it is sent, and sends it again, placed anew, if the views
// moved before the copies were acknowledged — such a copy may have landed
// where a migration no longer looks (DESIGN.md §18).
func (ds *DataStore) replicatedPut(ctx context.Context, to place, key, val []byte) error {
	for {
		vp := ds.views.Load()
		if err := ds.putReplicas(ctx, ds.replicasIn(vp, to), key, val); err != nil || ds.views.Load() == vp {
			return err
		}
	}
}

// putReplicas writes one key to every database of a replica set, the
// copies riding the async engine's RPC pool in parallel (§II-D — replica
// writes must not halve ingest throughput). It succeeds when the update is
// durable: at least one copy landed and every failed copy was tolerable per
// writeTolerable.
func (ds *DataStore) putReplicas(ctx context.Context, replicas []yokan.DBHandle, key, val []byte) error {
	if len(replicas) == 1 {
		return ds.yc.Put(ctx, replicas[0], key, val)
	}
	evs := make([]*asyncengine.Eventual[asyncengine.Void], len(replicas))
	for i, db := range replicas {
		evs[i] = ds.yc.PutAsync(ctx, ds.engine, db, key, val)
	}
	landed := 0
	var errs []error
	for i, ev := range evs {
		if _, err := ev.Wait(nil); err != nil {
			if ds.writeTolerable(replicas[i], err) {
				ds.replicaDrops.Add(1)
				continue
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", replicas[i], err))
			continue
		}
		landed++
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	if landed == 0 {
		return fmt.Errorf("hepnos: replicated put: all %d copies dropped", len(replicas))
	}
	ds.replicaWrites.Add(int64(landed - 1))
	return nil
}

// replicatedPutIfAbsent arbitrates an atomic get-or-put on the first usable
// replica — clients with a converged health view pick the same arbiter —
// then copies the winning value to the remaining replicas. If the preferred
// arbiter fails with a routable error the next replica in read order takes
// over, so a dead or closed primary no longer sinks dataset creation.
// Replica-copy failures follow the writeTolerable rule.
func (ds *DataStore) replicatedPutIfAbsent(ctx context.Context, replicas []yokan.DBHandle, key, val []byte) ([]byte, bool, error) {
	var (
		arbiter  yokan.DBHandle
		winner   []byte
		inserted bool
		err      error
	)
	order := ds.readOrder(replicas)
	for i, db := range order {
		winner, inserted, err = ds.yc.PutIfAbsent(ctx, db, key, val)
		if err == nil {
			arbiter = db
			ds.countFailover(order[0], db)
			break
		}
		if !routable(err) || i == len(order)-1 {
			return nil, false, err
		}
		ds.noteReadFailure(db, err)
	}
	for _, db := range replicas {
		if db == arbiter {
			continue
		}
		if perr := ds.yc.Put(ctx, db, key, winner); perr != nil {
			if !ds.writeTolerable(db, perr) {
				return nil, false, perr
			}
			ds.replicaDrops.Add(1)
			continue
		}
		ds.replicaWrites.Add(1)
	}
	return winner, inserted, nil
}
