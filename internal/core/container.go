package core

import (
	"context"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/uuid"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// container is the shared core of DataSet, Run, SubRun and Event handles:
// a datastore reference plus the container's encoded key. All product
// operations live here, since any container level can hold products.
type container struct {
	ds  *DataStore
	key keys.ContainerKey

	// prefetched holds the product bytes a Prefetcher shipped ahead of time
	// for this container (an event of a PEP batch or an EventCursor page):
	// its run of the batch's entries, each naming its selector in prefSel.
	prefetched []pepPrefEntry
	prefSel    []ProductSelector
}

// Key returns the container's encoded key.
func (c *container) Key() keys.ContainerKey { return c.key }

// DataStore returns the owning datastore handle.
func (c *container) DataStore() *DataStore { return c.ds }

// Store serializes value and stores it as a product with the given label —
// ev.store(vp) from Listing 1 (the label defaults to "" there; Go is
// explicit).
func (c *container) Store(ctx context.Context, label string, value any) error {
	if c.ds.closed.Load() {
		return ErrClosed
	}
	id, err := productIDFor(c.key, label, value)
	if err != nil {
		return err
	}
	// Registered columnar types stored on events become a one-event page
	// (batch ingest via WriteBatch grows much larger pages); zero-row
	// values stay on the row path so presence survives.
	if schema := serde.ColumnarOf(value); schema != nil &&
		c.key.Level() == keys.LevelEvent && columnarRows(value) > 0 {
		return c.storeColumnar(ctx, schema, label, value)
	}
	// Key and serialized value share one pooled scratch buffer; the yokan
	// client copies both into its own request encoding, and replicatedPut
	// waits for every copy before returning, so the scratch is recycled
	// only once no in-flight put can still read it.
	scratch := wire.Acquire(256)
	defer scratch.Release()
	kb := id.AppendEncode(scratch.B)
	buf, err := serde.MarshalAppend(kb, value)
	if err != nil {
		return fmt.Errorf("hepnos: serialize product %s: %w", id, err)
	}
	scratch.B = buf
	keyLen := len(kb)
	return c.ds.replicatedPut(ctx, c.ds.productReplicas(c.key), buf[:keyLen:keyLen], buf[keyLen:])
}

// storeColumnar writes one event's rows as a single-event page, each page
// KV replicated to the subrun's product replica set.
func (c *container) storeColumnar(ctx context.Context, schema *serde.ColumnSchema, label string, value any) error {
	srKey, _ := c.key.Parent()
	page := newOpenPage(schema, pageGroupKey(srKey, label, schema.TypeName()), srKey)
	if err := page.appendEvent(c.key.Number(), value); err != nil {
		return err
	}
	replicas := c.ds.productReplicas(srKey)
	ks, vs := page.pageKVs()
	for i := range ks {
		if err := c.ds.replicatedPut(ctx, replicas, ks[i], vs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Load fetches the product with the given label into ptr (which determines
// the type part of the key). Prefetched products are served locally.
func (c *container) Load(ctx context.Context, label string, ptr any) error {
	if c.ds.closed.Load() {
		return ErrClosed
	}
	id, err := productIDFor(c.key, label, ptr)
	if err != nil {
		return err
	}
	for _, e := range c.prefetched {
		if s := c.prefSel[e.Sel]; s.Label == label && s.Type == id.Type {
			return decodeProduct(e.Data, ptr)
		}
	}
	// Registered columnar event products live in pages; an event absent
	// from the pages falls through to the row path, which still serves
	// zero-row values and anything stored before registration.
	if schema := serde.ColumnarOf(ptr); schema != nil && c.key.Level() == keys.LevelEvent {
		if found, err := c.loadColumnar(ctx, schema, label, ptr); found {
			return err
		}
	}
	data, found, err := c.ds.get(ctx, func() []yokan.DBHandle { return c.ds.productReplicas(c.key) }, id.Encode())
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNoSuchProduct, id)
	}
	return decodeProduct(data, ptr)
}

// HasProduct reports whether a product with this label and the type of
// example exists on the container.
func (c *container) HasProduct(ctx context.Context, label string, example any) (bool, error) {
	if c.ds.closed.Load() {
		return false, ErrClosed
	}
	id, err := productIDFor(c.key, label, example)
	if err != nil {
		return false, err
	}
	if schema := serde.ColumnarOf(example); schema != nil && c.key.Level() == keys.LevelEvent {
		if found, err := c.hasColumnar(ctx, schema, label); found || err != nil {
			return found, err
		}
	}
	return c.ds.has(ctx, func() []yokan.DBHandle { return c.ds.productReplicas(c.key) }, id.Encode())
}

// ListProducts returns the label#type identifiers of the container's
// products. (The real HEPnOS deliberately does not iterate products —
// §II-C3 — but the capability is invaluable for tooling like hepnos-ls.)
func (c *container) ListProducts(ctx context.Context) ([]string, error) {
	if c.ds.closed.Load() {
		return nil, ErrClosed
	}
	pg := c.ds.pager(productDBs, c.key.Bytes(), c.key.Bytes(), listPageSize)
	var out []string
	for !pg.done {
		page, err := pg.next(ctx)
		if err != nil {
			return nil, err
		}
		for _, k := range page {
			// Container keys of children share this prefix only in the
			// container databases, never in product databases, so every
			// key here is <our key><label>#<type>. But a *descendant*
			// container's products also share the prefix (their container
			// key extends ours); keep only exact-container products by
			// checking that the suffix contains no higher key bytes...
			// which is impossible to distinguish in general, so HEPnOS
			// products are listed only for the exact container length.
			id, err := keys.DecodeProductID(k, c.key.Level())
			if err != nil || !id.Container.Equal(c.key) {
				continue
			}
			out = append(out, id.Label+"#"+id.Type)
		}
	}
	return out, nil
}

// DataSet is a named container of runs and other datasets (Listing 1's
// hepnos::DataSet).
type DataSet struct {
	container
	path string
}

// Path returns the dataset's full path, e.g. "fermilab/nova".
func (d *DataSet) Path() string { return d.path }

// UUID returns the dataset's identity.
func (d *DataSet) UUID() uuid.UUID {
	u := d.key.UUID()
	return uuid.UUID(u)
}

// CreateRun creates (idempotently) run number n in the dataset.
func (d *DataSet) CreateRun(ctx context.Context, n uint64) (*Run, error) {
	if d.ds.closed.Load() {
		return nil, ErrClosed
	}
	runKey := d.key.Child(n)
	// Container keys have no value; presence is existence (§II-C1).
	if err := d.ds.replicatedPut(ctx, d.ds.runReplicas(d.key), runKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Run{container: container{ds: d.ds, key: runKey}, dataset: d}, nil
}

// Run opens run number n, or returns ErrNoSuchContainer.
func (d *DataSet) Run(ctx context.Context, n uint64) (*Run, error) {
	if d.ds.closed.Load() {
		return nil, ErrClosed
	}
	runKey := d.key.Child(n)
	found, err := d.ds.has(ctx, func() []yokan.DBHandle { return d.ds.runReplicas(d.key) }, runKey.Bytes())
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: run %d in %s", ErrNoSuchContainer, n, d.path)
	}
	return &Run{container: container{ds: d.ds, key: runKey}, dataset: d}, nil
}

// Runs returns the run numbers in the dataset, ascending — the iterator of
// Listing 1's range-for over a dataset.
func (d *DataSet) Runs(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, d.ds, runDBs, d.key)
}

// Run handles a numbered run.
type Run struct {
	container
	dataset *DataSet
}

// Number returns the run number.
func (r *Run) Number() uint64 { return r.key.Number() }

// DataSet returns the enclosing dataset handle.
func (r *Run) DataSet() *DataSet { return r.dataset }

// CreateSubRun creates (idempotently) subrun number n.
func (r *Run) CreateSubRun(ctx context.Context, n uint64) (*SubRun, error) {
	if r.ds.closed.Load() {
		return nil, ErrClosed
	}
	srKey := r.key.Child(n)
	if err := r.ds.replicatedPut(ctx, r.ds.subrunReplicas(r.key), srKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &SubRun{container: container{ds: r.ds, key: srKey}, run: r}, nil
}

// SubRun opens subrun number n, or returns ErrNoSuchContainer.
func (r *Run) SubRun(ctx context.Context, n uint64) (*SubRun, error) {
	if r.ds.closed.Load() {
		return nil, ErrClosed
	}
	srKey := r.key.Child(n)
	found, err := r.ds.has(ctx, func() []yokan.DBHandle { return r.ds.subrunReplicas(r.key) }, srKey.Bytes())
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: subrun %d in run %d", ErrNoSuchContainer, n, r.Number())
	}
	return &SubRun{container: container{ds: r.ds, key: srKey}, run: r}, nil
}

// SubRuns returns the subrun numbers in the run, ascending.
func (r *Run) SubRuns(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, r.ds, subrunDBs, r.key)
}

// SubRun handles a numbered subrun.
type SubRun struct {
	container
	run *Run
}

// Number returns the subrun number.
func (s *SubRun) Number() uint64 { return s.key.Number() }

// Run returns the enclosing run handle.
func (s *SubRun) Run() *Run { return s.run }

// CreateEvent creates (idempotently) event number n.
func (s *SubRun) CreateEvent(ctx context.Context, n uint64) (*Event, error) {
	if s.ds.closed.Load() {
		return nil, ErrClosed
	}
	evKey := s.key.Child(n)
	if err := s.ds.replicatedPut(ctx, s.ds.eventReplicas(s.key), evKey.Bytes(), nil); err != nil {
		return nil, err
	}
	return &Event{container: container{ds: s.ds, key: evKey}, subrun: s}, nil
}

// Event opens event number n, or returns ErrNoSuchContainer.
func (s *SubRun) Event(ctx context.Context, n uint64) (*Event, error) {
	if s.ds.closed.Load() {
		return nil, ErrClosed
	}
	evKey := s.key.Child(n)
	found, err := s.ds.has(ctx, func() []yokan.DBHandle { return s.ds.eventReplicas(s.key) }, evKey.Bytes())
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: event %d in subrun %d", ErrNoSuchContainer, n, s.Number())
	}
	return &Event{container: container{ds: s.ds, key: evKey}, subrun: s}, nil
}

// Events returns the event numbers in the subrun, ascending.
func (s *SubRun) Events(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, s.ds, eventDBs, s.key)
}

// Event handles a numbered event — the natural atomic unit of HEP data.
type Event struct {
	container
	subrun *SubRun
}

// Number returns the event number.
func (e *Event) Number() uint64 { return e.key.Number() }

// SubRun returns the enclosing subrun handle (nil for events reconstructed
// from bare keys by the ParallelEventProcessor).
func (e *Event) SubRun() *SubRun { return e.subrun }

// ID describes the event's full coordinates.
func (e *Event) ID() EventID {
	id := EventID{Event: e.key.Number()}
	if sr, ok := e.key.Parent(); ok {
		id.SubRun = sr.Number()
		if run, ok := sr.Parent(); ok {
			id.Run = run.Number()
		}
	}
	return id
}

// EventID is the (run, subrun, event) coordinate triple.
type EventID struct {
	Run    uint64
	SubRun uint64
	Event  uint64
}

// String renders "run/subrun/event".
func (id EventID) String() string {
	return fmt.Sprintf("%d/%d/%d", id.Run, id.SubRun, id.Event)
}

// listChildNumbers pages through the numbered children of parentKey in its
// role's committed replica set (failing over per page when a copy's server
// is unhealthy). Thanks to big-endian encoding and per-parent placement,
// the keys come back sorted from a single database.
func listChildNumbers(ctx context.Context, ds *DataStore, role func(*View) []yokan.DBHandle, parentKey keys.ContainerKey) ([]uint64, error) {
	pg := ds.pager(role, parentKey.Bytes(), parentKey.Bytes(), listPageSize)
	var out []uint64
	for !pg.done {
		page, err := pg.next(ctx)
		if err != nil {
			return nil, err
		}
		for _, k := range page {
			ck, err := keys.ParseContainerKey(k)
			if err != nil || ck.Level() != parentKey.Level()+1 {
				continue // deeper descendants that happen to share this database
			}
			out = append(out, ck.Number())
		}
	}
	return out, nil
}

// productIDFor builds and validates a product key for a container key,
// deriving the type name from the value.
func productIDFor(ck keys.ContainerKey, label string, value any) (keys.ProductID, error) {
	id := keys.ProductID{Container: ck, Label: label, Type: serde.TypeName(value)}
	if err := id.Validate(); err != nil {
		return keys.ProductID{}, err
	}
	return id, nil
}
