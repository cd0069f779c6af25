package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// ErrViewChanged ends a ParallelEventProcessor run whose per-database event
// enumeration was overtaken by a migration commit; rerun the pass on the new
// view.
var ErrViewChanged = xerr.Sentinel("hepnos/view_changed", xerr.ClassConflict, "hepnos: committed view changed under a parallel event pass")

// PEP MPI tags (user tag space; applications should avoid this range while
// a ParallelEventProcessor is active).
const (
	tagPEPWorkReq  = 1 << 20
	tagPEPWorkResp = 1<<20 + 1
)

// ProductSelector names a product to prefetch alongside events.
type ProductSelector struct {
	Label string
	Type  string
}

// SelectorFor builds a selector from a label and an example value of the
// product's type.
func SelectorFor(label string, example any) ProductSelector {
	return ProductSelector{Label: label, Type: serde.TypeName(example)}
}

// PEPOptions tunes the ParallelEventProcessor. Defaults follow §IV-D of
// the paper: events are loaded from HEPnOS by a subset of processes in
// batches of 16384 (few RPCs, large payloads), then shared among processes
// in batches of 64 (fine-grain load balancing).
type PEPOptions struct {
	// LoadBatchSize is the number of event keys a reader lists from a
	// database per RPC. Each such page is also the prefetch unit: its
	// selected products are fetched in one fan-out (one GetMulti per
	// product database) and then cut into work batches. A reader therefore
	// holds the products of the page being fetched plus those of the pages
	// its queued work batches (at most 64) still borrow from.
	LoadBatchSize int
	// WorkBatchSize is the number of events handed to a worker at a time.
	WorkBatchSize int
	// Readers is the number of ranks designated as readers; 0 means
	// min(number of event databases, communicator size), the paper's
	// "typically as many readers as databases to read from".
	Readers int
	// Prefetch lists products to fetch in bulk with the events and ship
	// inside work batches. Every rank must pass the same list, in the same
	// order: a batch entry names its selector by position in the list.
	Prefetch []ProductSelector
}

func (o *PEPOptions) applyDefaults(ds *DataStore, commSize int) {
	if o.LoadBatchSize <= 0 {
		o.LoadBatchSize = 16384
	}
	if o.WorkBatchSize <= 0 {
		o.WorkBatchSize = 64
	}
	if o.Readers <= 0 {
		o.Readers = ds.NumEventDatabases()
	}
	if o.Readers > commSize {
		o.Readers = commSize
	}
}

// PEPStats reports what one ProcessEvents call did. Totals are identical
// on every rank (computed with allreduce); Local fields are per rank.
type PEPStats struct {
	LocalEvents int
	// LocalDegraded counts reads in this rank's work batches that left the
	// fast path: prefetch loads that fell back to on-demand RPCs because
	// every replica of their group failed, plus the replica-served reads
	// counted in LocalFailover.
	LocalDegraded int
	// LocalFailover counts reads (event keys and prefetched products)
	// served from a replica because the placement primary was unhealthy.
	LocalFailover int
	LocalStart    float64 // MPI Wtime at first processed batch
	LocalEnd      float64 // MPI Wtime after last processed batch
	TotalEvents   int64
	// TotalDegraded sums LocalDegraded across ranks: how much of the
	// prefetch batching was lost service-wide.
	TotalDegraded int64
	// TotalFailover sums LocalFailover across ranks: how much of the pass
	// was served by replicas instead of primaries.
	TotalFailover int64
	// Makespan is (max end − min start) across ranks — the paper's
	// throughput denominator.
	Makespan   float64
	Throughput float64 // events per second over the makespan
}

// pep wire messages (sent over the mpi layer, serde-encoded).
type pepWorkMsg struct {
	Done bool
	// Err, on a Done message, is the xerr wire frame of the failure that
	// cut this reader's load short (empty after a complete load).
	Err  []byte
	Keys [][]byte
	Pref []pepPrefEntry
	// Degraded is how many of this batch's prefetch loads failed over to
	// on-demand (the reader counts them; workers aggregate into stats).
	Degraded uint32
	// Failover is how many of this batch's reads (event keys owned via a
	// replica scan plus replica-served prefetch loads) left the primary.
	Failover uint32
}

// pepPrefEntry is one prefetched product: the bytes of selector Sel
// (an index into the Prefetcher's selectors) for event EventIdx of the
// batch. A batch's entries are in (EventIdx, Sel) order, so each event's
// products are one contiguous run of them.
type pepPrefEntry struct {
	EventIdx uint32
	Sel      uint32
	Data     []byte
}

// ProcessEvents iterates over all events of the dataset in parallel across
// the communicator's ranks, invoking fn on each event exactly once
// service-wide. It implements the ParallelEventProcessor of §II-D: the
// first Readers ranks run background loaders that page event keys out of
// their assigned event databases and feed a queue; every rank (readers
// included) pulls work batches from the readers round-robin.
func (ds *DataStore) ProcessEvents(ctx context.Context, comm *mpi.Comm, dataset *DataSet, opts PEPOptions, fn func(*Event) error) (PEPStats, error) {
	if ds.closed.Load() {
		return PEPStats{}, ErrClosed
	}
	opts.applyDefaults(ds, comm.Size())

	// The whole run is one span; every RPC the readers and workers issue
	// parents under it through ctx.
	sp := ds.tracer.Start("core:pep", obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())

	// Readers are long-running loops, so they get dedicated tracked
	// goroutines from the engine (the analog of dynamically created
	// execution streams) rather than occupying a fixed pool stream.
	var readerWG sync.WaitGroup
	if comm.Rank() < opts.Readers {
		readerWG.Add(1)
		ds.engine.Go(ctx, func(tctx context.Context) {
			defer readerWG.Done()
			ds.pepReader(tctx, comm, dataset, opts)
		})
	}

	stats, err := ds.pepWorker(ctx, comm, opts, fn)
	readerWG.Wait()

	// Aggregate: every rank learns the totals.
	stats.TotalEvents = comm.AllreduceInt64(int64(stats.LocalEvents), mpi.OpSum)
	stats.TotalDegraded = comm.AllreduceInt64(int64(stats.LocalDegraded), mpi.OpSum)
	stats.TotalFailover = comm.AllreduceInt64(int64(stats.LocalFailover), mpi.OpSum)
	start := comm.AllreduceFloat64(stats.LocalStart, mpi.OpMin)
	end := comm.AllreduceFloat64(stats.LocalEnd, mpi.OpMax)
	stats.Makespan = end - start
	if stats.Makespan > 0 {
		stats.Throughput = float64(stats.TotalEvents) / stats.Makespan
	}
	sp.End(err)
	return stats, err
}

// pepReader loads event keys from this reader's share of the event
// databases and serves work batches to requesting ranks.
func (ds *DataStore) pepReader(ctx context.Context, comm *mpi.Comm, dataset *DataSet, opts PEPOptions) {
	rank := comm.Rank()
	batches := make(chan pepWorkMsg, 64)

	// Background loader: page event keys out of the assigned databases in
	// LoadBatchSize pages, prefetch products, chop into work batches. Like
	// the reader it is a long-running loop, so it runs on a dedicated
	// engine goroutine; its per-database GetMulti groups fan out on the
	// engine's RPC pool through the Prefetcher. loadErr is written before
	// batches closes and read only after, so the close orders the two.
	var loadErr error
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	ds.engine.Go(ctx, func(tctx context.Context) {
		defer loadWG.Done()
		defer close(batches)
		loadErr = ds.pepLoad(tctx, rank, dataset, opts, batches)
	})

	// Server loop: answer work requests until every rank has been told
	// this reader is exhausted.
	doneSent := 0
	for doneSent < comm.Size() {
		data, src := comm.Recv(mpi.AnySource, tagPEPWorkReq)
		_ = data
		msg, ok := <-batches
		if !ok {
			// A failed load ends the run early; every rank is told why, so
			// a short pass is never mistaken for a complete one.
			msg = pepWorkMsg{Done: true}
			if loadErr != nil {
				msg.Err = xerr.AppendWire(nil, loadErr)
			}
			doneSent++
		}
		// Send copies the payload, so the encode buffer goes straight
		// back to the pool.
		buf := wire.Acquire(16 << 10)
		payload, err := serde.MarshalAppend(buf.B, &msg)
		if err != nil {
			// Serialization of our own message types cannot fail; treat
			// as fatal for this reader by reporting done.
			payload, _ = serde.MarshalAppend(buf.B[:0], &pepWorkMsg{Done: true})
			doneSent++
		}
		buf.B = payload
		comm.Send(src, tagPEPWorkResp, payload)
		buf.Release()
	}
	loadWG.Wait()
}

// pepLoad is the reader's loader: it enumerates this rank's share of the
// event databases through the shared key pager and queues work batches. The
// enumeration is per *database*, so it is pinned to the view committed when
// it starts: a page is trusted only while that view is still the committed
// one (nothing has been retired from it), and a commit mid-run ends the pass
// with ErrViewChanged instead of risking a key seen twice or not at all.
func (ds *DataStore) pepLoad(ctx context.Context, rank int, dataset *DataSet, opts PEPOptions, batches chan<- pepWorkMsg) error {
	pf := ds.NewPrefetcher(opts.Prefetch...)
	view := ds.v()
	for dbi := rank; dbi < len(view.EventDBs); dbi += opts.Readers {
		db := view.EventDBs[dbi]
		if ds.rf > 1 && !ds.health.Usable(string(db.Addr)) {
			// A dead database's keys are read-owned by their surviving
			// replicas, whose scans pick them up below.
			continue
		}
		pg := keyPager{ds: ds, resolve: oneDB(db), prefix: dataset.key.Bytes(), size: opts.LoadBatchSize}
		for !pg.done {
			page, err := pg.next(ctx)
			if err != nil {
				return fmt.Errorf("hepnos: pep: list events of %s: %w", db, err)
			}
			// Keep only event-level keys of this dataset. With
			// replication every event key appears in rf databases, so
			// a scan keeps only the keys it read-owns: the first
			// usable replica in placement order. Exactly one scan
			// claims each key (given a settled health view), which
			// preserves the PEP's exactly-once contract.
			var evKeys [][]byte
			foEvents := 0
			for _, k := range page {
				ck, err := keys.ParseContainerKey(k)
				if err != nil || ck.Level() != keys.LevelEvent {
					continue
				}
				if ds.rf > 1 {
					parent, ok := ck.Parent()
					if !ok {
						continue
					}
					replicas := ds.replicasFor(view.EventDBs, parent.Bytes())
					if owner := ds.readOrder(replicas)[0]; owner != db {
						continue // another database's scan claims this key
					} else if owner != replicas[0] {
						foEvents++ // claimed here only because the primary is down
					}
				}
				evKeys = append(evKeys, k)
			}
			if ds.v() != view {
				return ErrViewChanged
			}
			if foEvents > 0 {
				ds.failoverReads.Add(int64(foEvents))
			}
			// The page is the prefetch unit: one fan-out of few, large
			// GetMulti groups, then cut into work batches. Each batch takes
			// its events' run of the page's (event, selector)-ordered
			// entries, re-based to the batch's own event indices.
			pref, degraded, failover := pf.Fetch(ctx, evKeys)
			at := 0
			for off := 0; off < len(evKeys); off += opts.WorkBatchSize {
				hi := min(off+opts.WorkBatchSize, len(evKeys))
				msg := pepWorkMsg{Keys: evKeys[off:hi]}
				if off == 0 {
					// Page-level degraded and failover counts ride the
					// first batch; only the cross-rank totals are meaningful.
					msg.Degraded = uint32(degraded)
					msg.Failover = uint32(foEvents + failover)
				}
				end := at
				for end < len(pref) && int(pref[end].EventIdx) < hi {
					pref[end].EventIdx -= uint32(off)
					end++
				}
				msg.Pref, at = pref[at:end:end], end
				batches <- msg
			}
		}
	}
	return nil
}

// pepWorker pulls work batches from the readers round-robin and processes
// them. Every rank, reader or not, runs this.
func (ds *DataStore) pepWorker(ctx context.Context, comm *mpi.Comm, opts PEPOptions, fn func(*Event) error) (PEPStats, error) {
	var stats PEPStats
	var firstErr error
	alive := make([]int, 0, opts.Readers)
	for r := 0; r < opts.Readers; r++ {
		alive = append(alive, r)
	}
	started := false
	next := comm.Rank() % len(alive) // spread initial requests over readers
	for len(alive) > 0 {
		reader := alive[next%len(alive)]
		comm.Send(reader, tagPEPWorkReq, nil)
		payload, _ := comm.Recv(reader, tagPEPWorkResp)
		msg, evs, err := ds.decodeWorkBatch(payload, opts.Prefetch)
		if err != nil {
			// The batch is lost, but the reader is still serving: keep
			// asking it until its Done arrives, or its server loop waits
			// for this rank forever.
			if firstErr == nil {
				firstErr = fmt.Errorf("hepnos: corrupt work batch: %w", err)
			}
			continue
		}
		if msg.Done {
			if len(msg.Err) > 0 && firstErr == nil {
				firstErr = xerr.ParseWire(msg.Err)
			}
			// Remove this reader from the rotation.
			for i, r := range alive {
				if r == reader {
					alive = append(alive[:i], alive[i+1:]...)
					break
				}
			}
			continue
		}
		if !started {
			stats.LocalStart = comm.Wtime()
			started = true
		}
		stats.LocalDegraded += int(msg.Degraded) + int(msg.Failover)
		stats.LocalFailover += int(msg.Failover)
		ds.pepBatches.Add(1)
		for i := range evs {
			if firstErr == nil {
				if err := fn(&evs[i]); err != nil {
					firstErr = err // keep draining so readers terminate
				}
			}
			stats.LocalEvents++
			ds.pepEvents.Add(1)
		}
		stats.LocalEnd = comm.Wtime()
		next++
	}
	if !started {
		now := comm.Wtime()
		stats.LocalStart, stats.LocalEnd = now, now
	}
	return stats, firstErr
}

// decodeWorkBatch is the worker's half of a work batch. The payload is the
// worker's own copy (mpi.Send copies), so the decode borrows it: keys and
// prefetched products are views into it. A batch of events then becomes its
// Event handles, each holding its run of the batch's prefetched entries.
// The entries crossed the wire, so they are checked before any is attached:
// in strictly increasing (event, selector) order, every event index below
// len(Keys) and every selector below len(sel). A batch that fails is
// corrupt as a whole; no entry of it ever reaches another event. Keys that
// do not parse are skipped.
func (ds *DataStore) decodeWorkBatch(payload []byte, sel []ProductSelector) (pepWorkMsg, []Event, error) {
	var msg pepWorkMsg
	if err := serde.UnmarshalBorrow(payload, &msg); err != nil || msg.Done {
		return msg, nil, err
	}
	for i, e := range msg.Pref {
		if int(e.EventIdx) >= len(msg.Keys) || int(e.Sel) >= len(sel) {
			return msg, nil, fmt.Errorf("%w: prefetch entry %d is event %d selector %d of %d events and %d selectors",
				serde.ErrCorrupt, i, e.EventIdx, e.Sel, len(msg.Keys), len(sel))
		}
		if i > 0 {
			if p := msg.Pref[i-1]; e.EventIdx < p.EventIdx || e.EventIdx == p.EventIdx && e.Sel <= p.Sel {
				return msg, nil, fmt.Errorf("%w: prefetch entry %d (event %d selector %d) is out of order",
					serde.ErrCorrupt, i, e.EventIdx, e.Sel)
			}
		}
	}
	evs := make([]Event, 0, len(msg.Keys))
	at := 0
	for i, raw := range msg.Keys {
		var run []pepPrefEntry
		run, at = prefRun(msg.Pref, at, i)
		ck, err := keys.ParseContainerKey(raw)
		if err != nil {
			continue
		}
		evs = append(evs, Event{container: container{ds: ds, key: ck, prefetched: run, prefSel: sel}})
	}
	return msg, evs, nil
}
