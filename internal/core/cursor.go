package core

import (
	"context"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Cursors stream a container's children page by page instead of
// materializing the whole listing (the Runs/SubRuns/Events accessors).
// They are the analog of HEPnOS's C++ iterators; EventCursor additionally
// plays the role of the hepnos::Prefetcher, shipping selected products
// with each page so the per-event Load is a local cache hit.
//
// Cursors double-buffer: while the caller iterates page N, a lookahead
// task on the engine's prefetch pool fetches page N+1 (keys and, for
// EventCursor, its products), so crossing a page boundary usually costs no
// RPC round-trip.
//
// Cursor usage:
//
//	cur := dataset.RunCursor(ctx, 1024)
//	for cur.Next() {
//	    run := cur.Run()
//	    ...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Cursors are not safe for concurrent use.

// pageData is one fetched page: the child keys, the continuation state,
// and (when a prefetch hook is set) the page's prefetched products.
type pageData struct {
	cks  []keys.ContainerKey
	from []byte // continuation key after this page
	done bool   // no further pages
	err  error

	pref     []pepPrefEntry // prefetched products, EventIdx indexing cks
	degraded int
}

// numberCursor pages numbered child keys out of the parent's replica set
// (the placement home plus its copies), re-resolved per fetch: pages fail
// over when the preferred server is unhealthy and follow the committed view
// across a live migration.
type numberCursor struct {
	ctx      context.Context
	ds       *DataStore
	role     func(*View) []yokan.DBHandle
	parent   keys.ContainerKey
	pageSize int

	// prefetch, when set, bulk-loads products for a fetched page (raw
	// event keys in, entries + degraded count out). It runs inside the
	// page fetch so lookahead overlaps product I/O too.
	prefetch func(context.Context, [][]byte) ([]pepPrefEntry, int)

	// la is the in-flight lookahead for the next page, scheduled on the
	// engine's prefetch pool when the current page was installed.
	la *asyncengine.Eventual[pageData]

	page    []keys.ContainerKey
	pos     int
	from    []byte
	done    bool
	err     error
	current keys.ContainerKey

	curPref  []pepPrefEntry
	degraded int // total loads degraded to on-demand so far
}

func newNumberCursor(ctx context.Context, ds *DataStore, role func(*View) []yokan.DBHandle, parent keys.ContainerKey, pageSize int) *numberCursor {
	if pageSize <= 0 {
		pageSize = listPageSize
	}
	return &numberCursor{ctx: ctx, ds: ds, role: role, parent: parent, pageSize: pageSize}
}

// fetchPage lists child keys starting after from, skipping over raw pages
// that contain no direct children, and runs the prefetch hook on the
// result. It only reads immutable cursor fields, so a lookahead task can
// run it concurrently with iteration of the previous page.
func (c *numberCursor) fetchPage(ctx context.Context, from []byte) pageData {
	// Cursor paging feeds a caller-driven read loop: interactive class,
	// whether the fetch runs inline or on the lookahead pool.
	ctx = qos.WithClass(ctx, qos.ClassInteractive)
	pg := c.ds.pager(c.role, c.parent.Bytes(), c.parent.Bytes(), c.pageSize)
	pg.from = from
	var pd pageData
	for len(pd.cks) == 0 && !pg.done {
		raw, err := pg.next(ctx)
		if err != nil {
			pd.err = err
			return pd
		}
		for _, k := range raw {
			ck, err := keys.ParseContainerKey(k)
			if err == nil && ck.Level() == c.parent.Level()+1 {
				pd.cks = append(pd.cks, ck)
			}
		}
	}
	pd.from, pd.done = pg.from, pg.done
	if len(pd.cks) > 0 && c.prefetch != nil {
		raw := make([][]byte, len(pd.cks))
		for i, ck := range pd.cks {
			raw[i] = ck.Bytes()
		}
		pd.pref, pd.degraded = c.prefetch(ctx, raw)
	}
	return pd
}

// next advances to the next child key, installing pages as they run out:
// from the lookahead eventual when one is in flight, inline otherwise.
func (c *numberCursor) next() bool {
	if c.err != nil {
		return false
	}
	for {
		if c.pos < len(c.page) {
			c.current = c.page[c.pos]
			c.pos++
			return true
		}
		if c.done {
			return false
		}
		var pd pageData
		if c.la != nil {
			var werr error
			pd, werr = c.la.Wait(c.ctx)
			c.la = nil
			if werr != nil {
				c.err = werr
				return false
			}
		} else {
			if c.ds.closed.Load() {
				c.err = ErrClosed
				return false
			}
			pd = c.fetchPage(c.ctx, c.from)
		}
		if pd.err != nil {
			c.err = pd.err
			return false
		}
		c.page, c.pos = pd.cks, 0
		c.from, c.done = pd.from, pd.done
		c.curPref = pd.pref
		c.degraded += pd.degraded
		if !c.done {
			// Double-buffer: fetch the next page while the caller works
			// through this one.
			from := c.from
			c.la = asyncengine.Run(c.ds.engine, c.ctx, asyncengine.PoolPrefetch,
				func(tctx context.Context) (pageData, error) {
					return c.fetchPage(tctx, from), nil
				})
		}
		if len(c.page) == 0 {
			return false
		}
	}
}

// RunCursor streams the dataset's runs in ascending order.
type RunCursor struct {
	nc *numberCursor
	d  *DataSet
}

// RunCursor creates a cursor over the dataset's runs with the given page
// size (0 uses the default).
func (d *DataSet) RunCursor(ctx context.Context, pageSize int) *RunCursor {
	return &RunCursor{
		nc: newNumberCursor(ctx, d.ds, runDBs, d.key, pageSize),
		d:  d,
	}
}

// Next advances the cursor; it returns false at the end or on error.
func (c *RunCursor) Next() bool { return c.nc.next() }

// Run returns the current run handle.
func (c *RunCursor) Run() *Run {
	return &Run{container: container{ds: c.nc.ds, key: c.nc.current}, dataset: c.d}
}

// Err reports a cursor failure (nil at a clean end).
func (c *RunCursor) Err() error { return c.nc.err }

// SubRunCursor streams a run's subruns in ascending order.
type SubRunCursor struct {
	nc *numberCursor
	r  *Run
}

// SubRunCursor creates a cursor over the run's subruns.
func (r *Run) SubRunCursor(ctx context.Context, pageSize int) *SubRunCursor {
	return &SubRunCursor{
		nc: newNumberCursor(ctx, r.ds, subrunDBs, r.key, pageSize),
		r:  r,
	}
}

// Next advances the cursor; it returns false at the end or on error.
func (c *SubRunCursor) Next() bool { return c.nc.next() }

// SubRun returns the current subrun handle.
func (c *SubRunCursor) SubRun() *SubRun {
	return &SubRun{container: container{ds: c.nc.ds, key: c.nc.current}, run: c.r}
}

// Err reports a cursor failure (nil at a clean end).
func (c *SubRunCursor) Err() error { return c.nc.err }

// EventCursor streams a subrun's events, optionally prefetching selected
// products page by page (the hepnos::Prefetcher pattern). The next page's
// keys and products are fetched while the current page is being consumed.
type EventCursor struct {
	nc       *numberCursor
	s        *SubRun
	selector []ProductSelector
	// pref is the current event's run of the page's prefetched entries;
	// prefAt is where the next event's run starts.
	pref   []pepPrefEntry
	prefAt int
}

// EventCursor creates a cursor over the subrun's events. Selectors, if
// any, are bulk-fetched alongside each page so Event.Load serves them
// locally.
func (s *SubRun) EventCursor(ctx context.Context, pageSize int, selectors ...ProductSelector) *EventCursor {
	c := &EventCursor{
		nc:       newNumberCursor(ctx, s.ds, eventDBs, s.key, pageSize),
		s:        s,
		selector: selectors,
	}
	if len(selectors) > 0 {
		pf := s.ds.NewPrefetcher(selectors...)
		// The cursor's Degraded() lumps replica-served loads in with
		// on-demand fallbacks: both are off the fast path.
		c.nc.prefetch = func(pctx context.Context, evKeys [][]byte) ([]pepPrefEntry, int) {
			pref, degraded, failover := pf.Fetch(pctx, evKeys)
			return pref, degraded + failover
		}
	}
	return c
}

// Next advances the cursor; it returns false at the end or on error.
func (c *EventCursor) Next() bool {
	if !c.nc.next() {
		return false
	}
	if len(c.selector) > 0 {
		if c.nc.pos == 1 { // a new page was installed
			c.prefAt = 0
		}
		c.pref, c.prefAt = prefRun(c.nc.curPref, c.prefAt, c.nc.pos-1)
	}
	return true
}

// Event returns the current event handle (with any prefetched products).
func (c *EventCursor) Event() *Event {
	return &Event{
		container: container{ds: c.nc.ds, key: c.nc.current, prefetched: c.pref, prefSel: c.selector},
		subrun:    c.s,
	}
}

// Degraded returns how many product loads fell back to on-demand because
// a prefetch group's RPC failed.
func (c *EventCursor) Degraded() int { return c.nc.degraded }

// Err reports a cursor failure (nil at a clean end).
func (c *EventCursor) Err() error { return c.nc.err }
