package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// ErrBatchClosed is returned by every mutating WriteBatch operation after
// Close, and by a second Close.
var ErrBatchClosed = xerr.Sentinel("hepnos/batch_closed", xerr.ClassClosed, "hepnos: write batch is closed")

// WriteBatch accumulates container creations and product stores in a local
// buffer and sends them on Flush as grouped multi-put RPCs — §II-D of the
// paper. Each update is queued once, with its place; which databases
// receive it is decided at flush, which resolves every update against one
// snapshot of the views and groups the updates by database. An update
// queued before a migration window opens, commits or retires therefore
// lands where the views current at its flush put it (DESIGN.md §18).
//
// Every flush submits one multi-put per target database to the
// datastore's AsyncEngine RPC pool. A batch from NewWriteBatch then waits
// for them, so its Flush blocks and returns their errors. A batch from
// NewAsyncWriteBatch returns immediately; errors from those background
// flushes surface on the *next* Store/Flush call (and the failed groups'
// updates are re-queued, so no update is silently lost), with Close as the
// final barrier that waits for everything in flight — the destructor
// semantics of §II-D. Flushes run under the context of the call that
// triggered them, so caller cancellation stops in-flight flushes.
//
// A WriteBatch is safe for concurrent use.
type WriteBatch struct {
	ds    *DataStore
	async bool // Flush returns once the groups are submitted

	mu      sync.Mutex
	pending updates
	closed  bool
	resend  bool // a reaped group landed under moved views; Wait re-sends

	// colPages holds the open columnar page per page group (DESIGN.md
	// §17): event-level products of registered columnar types accumulate
	// here until a page seals (size/row threshold, or out-of-order event)
	// and its KV pairs join the pending buffer like any other update.
	colPages map[string]*openPage

	// flushWG covers the submission window between extracting groups and
	// registering their eventuals, so Wait cannot miss a flush in flight.
	flushWG  sync.WaitGroup
	inflight []*dbBatch

	// MaxPending flushes automatically once this many updates accumulate
	// (0 means only explicit Flush). It counts updates, not the copies a
	// replicated flush sends.
	MaxPending int
}

// update is one queued write: its key, value and place, all views into
// the segment of the buffer holding it.
type update struct {
	key, val []byte
	to       place
}

// updates is a buffer of queued writes. Keys and values are packed
// contiguously into the segment arena — one pooled chunk per ~64KiB of
// updates instead of two allocations per update — mirroring the paper's
// write-batch packing (§II-C). Each update is held once whatever the
// replication factor, and a parent key that prefixes its key (every
// container and row product) is a view into the key.
type updates struct {
	seg wire.Segment
	ups []update
}

// add copies one update into the buffer.
func (u *updates) add(to place, key, val []byte) {
	k := u.seg.Append(key)
	if n := len(to.parent); bytes.HasPrefix(key, to.parent) {
		to.parent = k[:n:n]
	} else {
		to.parent = u.seg.Append(to.parent)
	}
	if val != nil {
		val = u.seg.Append(val)
	}
	u.ups = append(u.ups, update{key: k, val: val, to: to})
}

// addPage queues a sealed columnar page's KV pairs, placed by its subrun.
func (u *updates) addPage(p *openPage) {
	ks, vs := p.pageKVs()
	for i := range ks {
		u.add(p.to, ks[i], vs[i])
	}
}

// flight is one submitted flush: the updates it took from the pending
// buffer, the views they were resolved under, and the groups sent from
// them that have not been reaped yet. The segment is recycled once every
// group has resolved.
type flight struct {
	updates
	vp     *viewPair
	groups int
}

// requeue puts the updates at idx back into dst with their places. An
// update goes back once, even when several of its copies failed; a nil key
// marks it re-queued.
func (f *flight) requeue(dst *updates, idx []int) {
	for _, i := range idx {
		if u := &f.ups[i]; u.key != nil {
			dst.add(u.to, u.key, u.val)
			u.key = nil
		}
	}
}

// dbBatch is one database's share of a flush: views into the flight's
// updates, so building the groups copies no key or value. Once submitted
// it carries its eventual, so the reaper can put its updates back on any
// failure — including tasks the engine canceled before they ever ran.
type dbBatch struct {
	db     yokan.DBHandle
	keys   [][]byte
	vals   [][]byte // nil entries stay nil
	idx    []int    // each key's update in the flight, for re-queueing
	flight *flight
	ev     *asyncengine.Eventual[asyncengine.Void]

	// sole marks a group holding a key with no other replica (replication
	// off, or a role set on one server): it is never dropped as tolerable
	// on flush failure, since no surviving copy is left to resync from.
	sole bool
}

// NewWriteBatch creates an empty batch bound to the datastore whose Flush
// blocks until every group lands.
func (ds *DataStore) NewWriteBatch() *WriteBatch {
	return &WriteBatch{ds: ds, colPages: make(map[string]*openPage)}
}

// NewAsyncWriteBatch creates a batch whose flushes return without waiting
// for their RPCs, auto-flushing every batchSize updates (default 1024).
func (ds *DataStore) NewAsyncWriteBatch(batchSize int) *WriteBatch {
	if batchSize <= 0 {
		batchSize = 1024
	}
	w := ds.NewWriteBatch()
	w.async = true
	w.MaxPending = batchSize
	return w
}

// Pending returns the number of queued (not yet flushed) updates.
func (w *WriteBatch) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending.ups)
}

// InFlight returns how many asynchronous flush RPCs have not completed.
func (w *WriteBatch) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, b := range w.inflight {
		if !b.ev.Ready() {
			n++
		}
	}
	return n
}

// reapLocked collects resolved flushes, keeping unresolved ones. A failed
// group — whether its RPC errored or the engine canceled it before it ran
// — and a group that landed while the views moved put their updates back
// in the pending buffer with their places, so the next flush resolves them
// again; each error is reported exactly once.
func (w *WriteBatch) reapLocked() error {
	kept := w.inflight[:0]
	var errs []error
	for _, b := range w.inflight {
		if !b.ev.Ready() {
			kept = append(kept, b)
			continue
		}
		_, err := b.ev.Wait(nil)
		switch {
		case err == nil && w.ds.views.Load() != b.flight.vp:
			// The views moved while the group was in flight, so it may
			// have landed where a migration no longer looks (retire may
			// erase it): send it again, placed anew.
			b.flight.requeue(&w.pending, b.idx)
			w.resend = true
		case err == nil:
		case !b.sole && w.ds.writeTolerable(b.db, err):
			// The target server is down and every key in this group has a
			// copy on another server: drop the group and let anti-entropy
			// replay it when the server rejoins.
			w.ds.replicaDrops.Add(int64(len(b.keys)))
		default:
			b.flight.requeue(&w.pending, b.idx)
			errs = append(errs, fmt.Errorf("flush to %s: %w", b.db, err))
		}
		// Once every group of the flight is resolved its bytes are dead
		// (sent, or copied back into pending), so recycle the chunks.
		if b.flight.groups--; b.flight.groups == 0 {
			b.flight.seg.Release()
		}
	}
	// Drop reaped entries so their flights can be collected.
	for i := len(kept); i < len(w.inflight); i++ {
		w.inflight[i] = nil
	}
	w.inflight = kept
	return errors.Join(errs...)
}

// enqueue is the shared path of every mutating operation: it fails after
// Close, surfaces any pending asynchronous flush error, runs add under the
// lock to queue the update(s), and honors MaxPending.
func (w *WriteBatch) enqueue(ctx context.Context, add func() error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBatchClosed
	}
	err := errors.Join(w.reapLocked(), add())
	doFlush := w.MaxPending > 0 && len(w.pending.ups) >= w.MaxPending
	w.mu.Unlock()
	if err != nil {
		// A previous asynchronous flush failed (its updates are back in
		// the pending buffer; report once), or the update did not encode.
		return err
	}
	if doFlush {
		return w.flush(ctx)
	}
	return nil
}

// queue queues one update with its place.
func (w *WriteBatch) queue(ctx context.Context, to place, key, val []byte) error {
	return w.enqueue(ctx, func() error {
		w.pending.add(to, key, val)
		return nil
	})
}

// CreateRun queues creation of a run and returns its handle immediately.
func (w *WriteBatch) CreateRun(ctx context.Context, d *DataSet, n uint64) (*Run, error) {
	runKey := d.key.Child(n)
	if err := w.queue(ctx, place{roleRuns, d.key.Bytes()}, runKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Run{container: container{ds: w.ds, key: runKey}, dataset: d}, nil
}

// CreateSubRun queues creation of a subrun.
func (w *WriteBatch) CreateSubRun(ctx context.Context, r *Run, n uint64) (*SubRun, error) {
	srKey := r.key.Child(n)
	if err := w.queue(ctx, place{roleSubruns, r.key.Bytes()}, srKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &SubRun{container: container{ds: w.ds, key: srKey}, run: r}, nil
}

// CreateEvent queues creation of an event.
func (w *WriteBatch) CreateEvent(ctx context.Context, s *SubRun, n uint64) (*Event, error) {
	evKey := s.key.Child(n)
	if err := w.queue(ctx, place{roleEvents, s.key.Bytes()}, evKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Event{container: container{ds: w.ds, key: evKey}, subrun: s}, nil
}

// Store queues a product store on any container handle (DataSet, Run,
// SubRun or Event all embed container).
func (w *WriteBatch) Store(ctx context.Context, c interface{ Key() keys.ContainerKey }, label string, value any) error {
	return storeProduct(ctx, c.Key(), label, value, w.queue, w.storeColumnar)
}

// storeColumnar appends one event's rows to its group's open page,
// sealing pages as they fill. A sealed page's KV pairs are queued like any
// other update, placed by the *subrun* key, which clusters a group's pages
// onto one database for the scan path.
func (w *WriteBatch) storeColumnar(ctx context.Context, schema *serde.ColumnSchema, ck keys.ContainerKey, label string, value any) error {
	ev := ck.Number()
	srKey, _ := ck.Parent()
	group := pageGroupKey(srKey, label, schema.TypeName())
	return w.enqueue(ctx, func() error {
		page := w.colPages[string(group)]
		// An event at or below the page's last one would break the
		// ascending invariant: seal what is open and start fresh.
		if page != nil && page.covers(ev) {
			w.pending.addPage(page)
			page = nil
		}
		if page == nil {
			page = newOpenPage(schema, group, srKey)
			w.colPages[string(group)] = page
		}
		if err := page.appendEvent(ev, value); err != nil {
			return err
		}
		if page.full() {
			w.pending.addPage(page)
			delete(w.colPages, string(group))
		}
		return nil
	})
}

// sealPages moves every open columnar page into the pending buffer.
// Explicit Flush and Close run it so neither leaves a half-built page
// behind; the MaxPending auto-flush deliberately does not, so steady
// ingest grows pages to their sealing thresholds instead of fragmenting
// them at every flush boundary.
func (w *WriteBatch) sealPages() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for g, p := range w.colPages {
		w.pending.addPage(p)
		delete(w.colPages, g)
	}
}

// Flush sends all queued updates, one multi-put per target database.
//
// Synchronous batches block until every group lands; on error the batch
// keeps the unsent groups, so Flush can be re-driven. Asynchronous batches
// submit the groups to the engine and return immediately; a flush error
// re-queues its group and surfaces on the next Store/Flush (or at Close).
// Flush also reports any error from previously submitted flushes.
func (w *WriteBatch) Flush(ctx context.Context) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBatchClosed
	}
	err := w.reapLocked()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.sealPages()
	return w.flush(ctx)
}

// flush runs regardless of the closed flag (Close uses it for the final
// drain).
func (w *WriteBatch) flush(ctx context.Context) error {
	// The flush span covers group submission, plus the wait for a
	// synchronous batch; the per-database put_multi client spans parent
	// under it.
	sp := w.ds.tracer.Start("core:flush", obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	w.submit(ctx)
	var err error
	if !w.async {
		err = w.Wait(ctx)
	}
	sp.End(err)
	return err
}

// submit resolves the pending updates into per-database groups and hands
// each group to the engine's RPC pool.
func (w *WriteBatch) submit(ctx context.Context) {
	// Batched ingest is the QoS class servers shed first under overload.
	ctx = qos.WithClass(ctx, qos.ClassBatch)
	w.mu.Lock()
	f := &flight{updates: w.pending, vp: w.ds.views.Load()}
	w.pending = updates{}
	w.flushWG.Add(1)
	w.mu.Unlock()
	defer w.flushWG.Done()
	// Resolve and submit outside the lock: submission blocks under
	// backpressure and must not stall Pending/reap on other goroutines.
	groups := w.ds.groupByDB(f.vp, f.ups)
	f.groups = len(groups)
	if f.groups == 0 {
		f.seg.Release()
	}
	for _, b := range groups {
		b.flight = f
		b.ev = w.ds.yc.PutMultiAsync(ctx, w.ds.engine, b.db, b.keys, b.vals)
		w.mu.Lock()
		w.inflight = append(w.inflight, b)
		w.mu.Unlock()
	}
}

// groupByDB is where a batched update's databases are decided: it
// resolves each update's replica set under one snapshot of the views —
// once for a run of consecutive updates sharing a place — and splits the
// updates by database, in first-use order.
func (ds *DataStore) groupByDB(vp *viewPair, ups []update) []*dbBatch {
	byDB := make(map[yokan.DBHandle]*dbBatch)
	var groups []*dbBatch
	var set []yokan.DBHandle
	for i := range ups {
		u := &ups[i]
		if i == 0 || u.to.role != ups[i-1].to.role || !bytes.Equal(u.to.parent, ups[i-1].to.parent) {
			set = ds.replicasIn(vp, u.to)
		}
		for _, db := range set {
			b := byDB[db]
			if b == nil {
				b = &dbBatch{db: db}
				byDB[db] = b
				groups = append(groups, b)
			}
			b.keys = append(b.keys, u.key)
			b.vals = append(b.vals, u.val)
			b.idx = append(b.idx, i)
			b.sole = b.sole || len(set) == 1
		}
	}
	return groups
}

// Wait blocks until every flush submitted so far completes
// (or ctx is done) and returns their joined errors. Failed groups are back
// in the pending buffer and can be re-flushed. Groups that landed while
// the views moved are sent again, placed anew, before Wait returns.
func (w *WriteBatch) Wait(ctx context.Context) error {
	for {
		w.flushWG.Wait()
		w.mu.Lock()
		flushes := append([]*dbBatch(nil), w.inflight...)
		w.mu.Unlock()
		for _, b := range flushes {
			// Task errors are collected (and their groups re-queued) by
			// the reap below; only a Wait aborted by ctx returns early.
			if _, err := b.ev.Wait(ctx); err != nil && ctx != nil && ctx.Err() != nil {
				return err
			}
		}
		w.mu.Lock()
		err, resend := w.reapLocked(), w.resend
		w.resend = false
		w.mu.Unlock()
		if err != nil || !resend {
			return err
		}
		w.submit(ctx)
	}
}

// Close flushes the remaining updates, waits for every in-flight flush to
// land, and marks the batch closed: all later mutating calls (and a second
// Close) return ErrBatchClosed. The returned error joins every unreported
// flush failure; on error, Pending reports how many updates did not land.
func (w *WriteBatch) Close(ctx context.Context) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBatchClosed
	}
	w.closed = true
	w.mu.Unlock()
	w.sealPages()
	errFlush := w.flush(ctx)
	errWait := w.Wait(ctx)
	return errors.Join(errFlush, errWait)
}
