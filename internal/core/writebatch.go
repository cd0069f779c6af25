package core

import (
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
// buffer, groups them by target database (since not all updates target the
// same database), and sends grouped multi-put RPCs on Flush — §II-D of the
// paper.
//
// Every flush submits one multi-put per target database to the
// datastore's AsyncEngine RPC pool. A batch from NewWriteBatch then waits
// for them, so its Flush blocks and returns their errors. A batch from
// NewAsyncWriteBatch returns immediately; errors from those background
// flushes surface on the *next* Store/Flush call (and the failed groups
// are re-queued, so no update is silently lost), with Close as the final
// barrier that waits for everything in flight — the destructor semantics
// of §II-D. Flushes run under the context of the call that triggered them,
// so caller cancellation stops in-flight flushes.
//
// A WriteBatch is safe for concurrent use.
type WriteBatch struct {
	ds    *DataStore
	async bool // Flush returns once the groups are submitted

	mu      sync.Mutex
	pending map[yokan.DBHandle]*dbBatch
	queued  int
	closed  bool

	// colPages holds the open columnar page per page group (DESIGN.md
	// §17): event-level products of registered columnar types accumulate
	// here until a page seals (size/row threshold, or out-of-order event)
	// and its KV pairs join the pending buffer like any other update.
	colPages map[string]*openPage

	// flushWG covers the submission window between extracting groups and
	// registering their eventuals, so Wait cannot miss a flush in flight.
	flushWG  sync.WaitGroup
	inflight []inflightFlush

	// MaxPending flushes automatically once this many updates accumulate
	// (0 means only explicit Flush).
	MaxPending int
}

// dbBatch is one database's queued updates. Keys and values are packed
// contiguously into the group's segment arena — one pooled chunk per ~64KiB
// of updates instead of two allocations per update — mirroring the paper's
// write-batch packing (§II-C). The segment is recycled once the group's
// flush lands (or its contents are re-queued into a fresh segment).
type dbBatch struct {
	seg  wire.Segment
	keys [][]byte // views into seg
	vals [][]byte // views into seg (nil entries stay nil)

	// sole marks a group holding at least one key with no other replica
	// (replication off, or a role set confined to one server). Such a
	// group is never tolerantly dropped on flush failure — there is no
	// surviving copy to resync from.
	sole bool
}

// add copies key and val into the batch's segment and queues the views.
func (b *dbBatch) add(key, val []byte) {
	b.keys = append(b.keys, b.seg.Append(key))
	if val == nil {
		b.vals = append(b.vals, nil)
	} else {
		b.vals = append(b.vals, b.seg.Append(val))
	}
}

// inflightFlush pairs a submitted flush with the group it carries, so
// the reaper can put the group back on any failure — including tasks the
// engine canceled before they ever ran.
type inflightFlush struct {
	ev *asyncengine.Eventual[asyncengine.Void]
	db yokan.DBHandle
	b  *dbBatch
}

// NewWriteBatch creates an empty batch bound to the datastore whose Flush
// blocks until every group lands.
func (ds *DataStore) NewWriteBatch() *WriteBatch {
	return &WriteBatch{
		ds:       ds,
		pending:  make(map[yokan.DBHandle]*dbBatch),
		colPages: make(map[string]*openPage),
	}
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
	return w.queued
}

// InFlight returns how many asynchronous flush RPCs have not completed.
func (w *WriteBatch) InFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, f := range w.inflight {
		if !f.ev.Ready() {
			n++
		}
	}
	return n
}

func (w *WriteBatch) addLocked(db yokan.DBHandle, key, val []byte, sole bool) {
	b := w.pending[db]
	if b == nil {
		b = &dbBatch{}
		w.pending[db] = b
	}
	if sole {
		b.sole = true
	}
	b.add(key, val)
	w.queued++
}

// reapLocked collects resolved flushes, keeping unresolved
// ones. A failed flush — whether its RPC errored or the engine canceled it
// before it ran — puts its group back in the pending buffer, so no update
// is lost; each error is reported exactly once.
func (w *WriteBatch) reapLocked() error {
	kept := w.inflight[:0]
	var errs []error
	for _, f := range w.inflight {
		if !f.ev.Ready() {
			kept = append(kept, f)
			continue
		}
		if _, err := f.ev.Wait(nil); err != nil {
			if !f.b.sole && w.ds.writeTolerable(f.db, err) {
				// The target server is down and every key in this group
				// has a copy on another server: drop the group and let
				// anti-entropy replay it when the server rejoins.
				w.ds.replicaDrops.Add(int64(len(f.b.keys)))
			} else {
				// Re-queue copies the group into the live pending segment,
				// so the failed group's own segment can be recycled below.
				for i := range f.b.keys {
					w.addLocked(f.db, f.b.keys[i], f.b.vals[i], f.b.sole)
				}
				errs = append(errs, fmt.Errorf("flush to %s: %w", f.db, err))
			}
		}
		// The flush is resolved either way: its segment's bytes are dead
		// (sent, or copied back into pending), so recycle the chunks.
		f.b.seg.Release()
	}
	// Drop reaped entries so their groups can be collected.
	for i := len(kept); i < len(w.inflight); i++ {
		w.inflight[i] = inflightFlush{}
	}
	w.inflight = kept
	return errors.Join(errs...)
}

// queue is the shared path of every mutating operation: it fails after
// Close, surfaces any pending asynchronous flush error, queues the update
// to every database of its replica set, and honors MaxPending (which
// counts copies, so replicated batches flush proportionally earlier).
func (w *WriteBatch) queue(ctx context.Context, replicas []yokan.DBHandle, key, val []byte) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBatchClosed
	}
	err := w.reapLocked()
	sole := len(replicas) == 1
	for _, db := range replicas {
		w.addLocked(db, key, val, sole)
	}
	doFlush := w.MaxPending > 0 && w.queued >= w.MaxPending
	w.mu.Unlock()
	if err != nil {
		// A previous asynchronous flush failed; its updates are back in
		// the pending buffer (the one just queued included). Report once.
		return err
	}
	if doFlush {
		return w.flush(ctx)
	}
	return nil
}

// CreateRun queues creation of a run and returns its handle immediately.
func (w *WriteBatch) CreateRun(ctx context.Context, d *DataSet, n uint64) (*Run, error) {
	runKey := d.key.Child(n)
	if err := w.queue(ctx, w.ds.runReplicas(d.key), runKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Run{container: container{ds: w.ds, key: runKey}, dataset: d}, nil
}

// CreateSubRun queues creation of a subrun.
func (w *WriteBatch) CreateSubRun(ctx context.Context, r *Run, n uint64) (*SubRun, error) {
	srKey := r.key.Child(n)
	if err := w.queue(ctx, w.ds.subrunReplicas(r.key), srKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &SubRun{container: container{ds: w.ds, key: srKey}, run: r}, nil
}

// CreateEvent queues creation of an event.
func (w *WriteBatch) CreateEvent(ctx context.Context, s *SubRun, n uint64) (*Event, error) {
	evKey := s.key.Child(n)
	if err := w.queue(ctx, w.ds.eventReplicas(s.key), evKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Event{container: container{ds: w.ds, key: evKey}, subrun: s}, nil
}

// Store queues a product store on any container handle (DataSet, Run,
// SubRun or Event all embed container).
func (w *WriteBatch) Store(ctx context.Context, c interface{ Key() keys.ContainerKey }, label string, value any) error {
	return w.storeOn(ctx, c.Key(), label, value)
}

func (w *WriteBatch) storeOn(ctx context.Context, ck keys.ContainerKey, label string, value any) error {
	id, err := productIDFor(ck, label, value)
	if err != nil {
		return err
	}
	// Registered columnar types stored on events take the page path;
	// zero-row values fall through to the row path so presence survives
	// (pages never carry empty events — see pages.go).
	if schema := serde.ColumnarOf(value); schema != nil &&
		ck.Level() == keys.LevelEvent && columnarRows(value) > 0 {
		return w.storeColumnar(ctx, schema, ck, label, value)
	}
	// Product key and serialized value are built back-to-back in one
	// pooled scratch buffer; queue packs both into the target group's
	// segment, so neither gets its own allocation.
	scratch := wire.Acquire(256)
	defer scratch.Release()
	kb := id.AppendEncode(scratch.B)
	buf, err := serde.MarshalAppend(kb, value)
	if err != nil {
		return fmt.Errorf("hepnos: serialize product %s: %w", id, err)
	}
	scratch.B = buf
	keyLen := len(kb)
	return w.queue(ctx, w.ds.productReplicas(ck), buf[:keyLen:keyLen], buf[keyLen:])
}

// storeColumnar appends one event's rows to its group's open page,
// sealing pages as they fill. A sealed page's KV pairs ride queue() like
// row products — packed into per-database segments, replicated, and
// flushed by the same machinery — except they are placed by the *subrun*
// key, clustering a group's pages onto one database for the scan path.
func (w *WriteBatch) storeColumnar(ctx context.Context, schema *serde.ColumnSchema, ck keys.ContainerKey, label string, value any) error {
	ev := ck.Number()
	srKey, _ := ck.Parent()
	group := pageGroupKey(srKey, label, schema.TypeName())

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBatchClosed
	}
	var toEmit []*openPage
	page := w.colPages[string(group)]
	// An event at or below the page's last one would break the ascending
	// invariant: seal what is open and start fresh.
	if page != nil && page.covers(ev) {
		toEmit = append(toEmit, page)
		page = nil
	}
	if page == nil {
		page = newOpenPage(schema, group, srKey)
		w.colPages[string(group)] = page
	}
	if err := page.appendEvent(ev, value); err != nil {
		w.mu.Unlock()
		return err
	}
	if page.full() {
		toEmit = append(toEmit, page)
		delete(w.colPages, string(group))
	}
	w.mu.Unlock()

	for _, p := range toEmit {
		if err := w.emitPage(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// emitPage queues a sealed page's KV pairs to the subrun's product
// replica set.
func (w *WriteBatch) emitPage(ctx context.Context, p *openPage) error {
	replicas := w.ds.productReplicas(p.srKey)
	ks, vs := p.pageKVs()
	for i := range ks {
		if err := w.queue(ctx, replicas, ks[i], vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// sealPages moves every open columnar page into the pending buffer.
// Explicit Flush and Close run it so neither leaves a half-built page
// behind; the MaxPending auto-flush deliberately does not, so steady
// ingest grows pages to their sealing thresholds instead of fragmenting
// them at every flush boundary. addLocked is used directly to keep
// sealing from re-triggering the auto-flush threshold.
func (w *WriteBatch) sealPages() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for g, p := range w.colPages {
		replicas := w.ds.productReplicas(p.srKey)
		sole := len(replicas) == 1
		ks, vs := p.pageKVs()
		for i := range ks {
			for _, db := range replicas {
				w.addLocked(db, ks[i], vs[i], sole)
			}
		}
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
	// Batched ingest is the QoS class servers shed first under overload.
	ctx = qos.WithClass(ctx, qos.ClassBatch)
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

// submit hands every pending group to the engine's RPC pool.
func (w *WriteBatch) submit(ctx context.Context) {
	w.mu.Lock()
	groups := w.pending
	w.pending = make(map[yokan.DBHandle]*dbBatch)
	w.queued = 0
	w.flushWG.Add(1)
	w.mu.Unlock()
	defer w.flushWG.Done()
	// Submit outside the lock: submission blocks under backpressure and
	// must not stall Pending/reap on other goroutines.
	for db, b := range groups {
		ev := w.ds.yc.PutMultiAsync(ctx, w.ds.engine, db, b.keys, b.vals)
		w.mu.Lock()
		w.inflight = append(w.inflight, inflightFlush{ev: ev, db: db, b: b})
		w.mu.Unlock()
	}
}

// Wait blocks until every flush submitted so far completes
// (or ctx is done) and returns their joined errors. Failed groups are back
// in the pending buffer and can be re-flushed.
func (w *WriteBatch) Wait(ctx context.Context) error {
	w.flushWG.Wait()
	w.mu.Lock()
	flushes := append([]inflightFlush(nil), w.inflight...)
	w.mu.Unlock()
	for _, f := range flushes {
		// Task errors are collected (and their groups re-queued) by the
		// reap below; only a Wait aborted by ctx itself returns early.
		if _, err := f.ev.Wait(ctx); err != nil && ctx != nil && ctx.Err() != nil {
			return err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reapLocked()
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
