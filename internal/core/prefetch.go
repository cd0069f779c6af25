package core

import (
	"context"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Prefetcher bulk-loads selected products for batches of event keys — the
// hepnos::Prefetcher of §II-D. Requests are grouped by product database
// (placement guarantees one container's products share a database, §II-C3)
// and the per-database GetMulti groups are fanned out in parallel on the
// AsyncEngine's RPC pool.
//
// A failed group is not an error for the caller: those products simply are
// not in the prefetch cache and Event.Load falls back to an on-demand RPC.
// Fetch reports how many product loads were degraded that way so the loss
// of batching is observable (PEPStats.LocalDegraded, hepnos-timeline)
// instead of silent.
type Prefetcher struct {
	ds  *DataStore
	sel []ProductSelector
}

// NewPrefetcher creates a Prefetcher for the given product selectors.
func (ds *DataStore) NewPrefetcher(sel ...ProductSelector) *Prefetcher {
	return &Prefetcher{ds: ds, sel: sel}
}

// prefetchGroup is one per-database GetMulti batch. The group targets the
// health-preferred replica of its containers; fallback lists the remaining
// copies to retry against when the target's RPC fails, and fo counts the
// loads whose target already differs from the placement primary (reads the
// failover layer rerouted).
type prefetchGroup struct {
	db       yokan.DBHandle
	fallback []yokan.DBHandle
	keys     [][]byte
	pos      []int // per key, its (event, selector) position: event*len(sel) + selector
	fo       int
}

// Fetch bulk-loads the selected products for evKeys (raw event container
// keys). It returns the entries found, in (event, selector) order, the
// number of product loads that degraded to on-demand because every replica
// of their group failed, and the number served from a replica instead of
// the placement primary.
func (p *Prefetcher) Fetch(ctx context.Context, evKeys [][]byte) ([]pepPrefEntry, int, int) {
	if len(p.sel) == 0 || len(evKeys) == 0 {
		return nil, 0, 0
	}
	// Prefetch serves an analysis loop that is about to block on these
	// products: interactive class, kept admitted while ingest sheds.
	ctx = qos.WithClass(ctx, qos.ClassInteractive)
	// One span covers the whole fan-out; the per-group GetMulti client
	// spans become its children through ctx.
	sp := p.ds.tracer.Start("core:prefetch", obs.KindInternal, obs.SpanFromContext(ctx), "")
	ctx = obs.ContextWithSpan(ctx, sp.Context())
	defer sp.End(nil)
	byDB := make(map[yokan.DBHandle]*prefetchGroup)
	var groups []*prefetchGroup
	// All product keys of the fan-out are packed into one segment arena
	// (scratch re-encodes each key, the segment keeps the stable copy)
	// instead of one allocation per key. The segment is recycled after
	// every group has resolved. When the wait is cut short by ctx, a
	// still-running task may be reading the keys, so the segment is handed
	// to a background drain that waits out the stragglers and only then
	// returns the chunks to the pools — deterministic recycling either way.
	var seg wire.Segment
	scratch := wire.Acquire(256)
	defer scratch.Release()
	for i, raw := range evKeys {
		ck, err := keys.ParseContainerKey(raw)
		if err != nil {
			continue
		}
		replicas := p.ds.productReplicas(ck)
		order := p.ds.readOrder(replicas)
		db := order[0]
		g := byDB[db]
		if g == nil {
			g = &prefetchGroup{db: db, fallback: order[1:]}
			byDB[db] = g
			groups = append(groups, g)
		}
		if db != replicas[0] {
			g.fo += len(p.sel)
		}
		for si, s := range p.sel {
			id := keys.ProductID{Container: ck, Label: s.Label, Type: s.Type}
			kb := id.AppendEncode(scratch.B[:0])
			scratch.B = kb
			g.keys = append(g.keys, seg.Append(kb))
			g.pos = append(g.pos, i*len(p.sel)+si)
		}
	}
	// Submit every group, then collect: the groups overlap on the RPC pool.
	evs := make([]*asyncengine.Eventual[yokan.GetMultiResult], len(groups))
	for i, g := range groups {
		// Small groups go inline; large ones take the bulk (RDMA) path,
		// mirroring Mercury's eager/rendezvous split.
		bulk := len(g.keys) >= 32
		evs[i] = p.ds.yc.GetMultiAsync(ctx, p.ds.engine, g.db, g.keys, bulk)
	}
	// Every found product lands at its (event, selector) position, so the
	// result is in event order whatever order the groups come back in.
	out := make([]pepPrefEntry, len(evKeys)*len(p.sel))
	found := make([]bool, len(out))
	degraded, failover := 0, 0
	var stragglers []*asyncengine.Eventual[yokan.GetMultiResult]
	for i, g := range groups {
		p.ds.prefetchLoads.Add(int64(len(g.keys)))
		res, err := evs[i].Wait(ctx)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				// The task may still be running and reading the packed
				// keys; the segment must not be recycled under it yet.
				if !evs[i].Ready() {
					stragglers = append(stragglers, evs[i])
				}
				degraded += len(g.keys)
				continue
			}
			// Retry the whole group against the remaining replicas before
			// degrading, as long as the failures are the kind failover
			// routes around. Keys whose replica set does not include the
			// fallback database simply come back not-found and load
			// on-demand later — a miss, never a wrong answer.
			recovered := false
			if p.ds.failedOver(g.db, err) {
				for _, fdb := range g.fallback {
					vals, found, rerr := p.ds.yc.GetMulti(ctx, fdb, g.keys, len(g.keys) >= 32)
					if rerr == nil {
						res = yokan.GetMultiResult{Vals: vals, Found: found}
						recovered = true
						failover += len(g.keys)
						break
					}
					if !p.ds.failedOver(fdb, rerr) {
						break
					}
				}
			}
			if !recovered {
				degraded += len(g.keys)
				continue
			}
		} else {
			failover += g.fo
		}
		for j := range g.keys {
			if !res.Found[j] {
				continue
			}
			// res.Vals[j] is a borrowed view into the group's single
			// GetMulti response buffer (GC-owned): the prefetched products
			// of one group share one contiguous allocation.
			pos := g.pos[j]
			out[pos] = pepPrefEntry{EventIdx: uint32(pos / len(p.sel)), Sel: uint32(pos % len(p.sel)), Data: res.Vals[j]}
			found[pos] = true
		}
	}
	n := 0
	for pos := range out {
		if found[pos] {
			out[n] = out[pos]
			n++
		}
	}
	out = out[:n]
	if len(stragglers) == 0 {
		seg.Release()
	} else {
		// A cancelled fetch left tasks in flight. Wait them out off the
		// caller's path, then recycle: the chunks go back to the pools
		// instead of leaking to the GC.
		p.ds.engine.Go(context.Background(), func(context.Context) {
			for _, ev := range stragglers {
				_, _ = ev.Wait(context.Background())
			}
			seg.Release()
			p.ds.prefetchDrained.Add(1)
		})
	}
	p.ds.prefetchDegraded.Add(int64(degraded))
	p.ds.failoverReads.Add(int64(failover))
	return out, degraded, failover
}

// prefRun returns event i's run of entries in (event, selector) order,
// given that the runs of the events before i end at pref[at], and the
// position after it. Walking i upwards partitions a batch with no index.
func prefRun(pref []pepPrefEntry, at, i int) ([]pepPrefEntry, int) {
	end := at
	for end < len(pref) && int(pref[end].EventIdx) == i {
		end++
	}
	return pref[at:end:end], end
}
