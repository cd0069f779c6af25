package core

import (
	"context"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/uuid"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
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
// explicit). A registered columnar type stored on an event becomes a
// one-event page (batch ingest via WriteBatch grows much larger pages).
func (c *container) Store(ctx context.Context, label string, value any) error {
	if c.ds.closed.Load() {
		return ErrClosed
	}
	return storeProduct(ctx, c.key, label, value, c.ds.replicatedPut, c.ds.storeColumnar)
}

// storeProduct is the one product encoder behind container.Store and
// WriteBatch.Store, which differ only in where the update goes. It
// validates the product ID and hands a registered columnar type stored on
// an event to columnar (zero-row values stay on the row path so presence
// survives). Any other product is put, placed by its container, with key
// and value back-to-back in one pooled scratch buffer that is recycled
// when put returns.
func storeProduct(ctx context.Context, ck keys.ContainerKey, label string, value any,
	put func(context.Context, place, []byte, []byte) error,
	columnar func(context.Context, *serde.ColumnSchema, keys.ContainerKey, string, any) error) error {
	id, err := productIDFor(ck, label, value)
	if err != nil {
		return err
	}
	if schema := serde.ColumnarOf(value); schema != nil &&
		ck.Level() == keys.LevelEvent && columnarRows(value) > 0 {
		return columnar(ctx, schema, ck, label, value)
	}
	scratch := wire.Acquire(256)
	defer scratch.Release()
	kb := id.AppendEncode(scratch.B)
	buf, err := serde.MarshalAppend(kb, value)
	if err != nil {
		return fmt.Errorf("hepnos: serialize product %s: %w", id, err)
	}
	scratch.B = buf
	keyLen := len(kb)
	return put(ctx, place{roleProducts, ck.Bytes()}, buf[:keyLen:keyLen], buf[keyLen:])
}

// storeColumnar writes one event's rows as a single-event page, each page
// KV replicated to the subrun's product replica set.
func (ds *DataStore) storeColumnar(ctx context.Context, schema *serde.ColumnSchema, ck keys.ContainerKey, label string, value any) error {
	srKey, _ := ck.Parent()
	page := newOpenPage(schema, pageGroupKey(srKey, label, schema.TypeName()), srKey)
	if err := page.appendEvent(ck.Number(), value); err != nil {
		return err
	}
	ks, vs := page.pageKVs()
	for i := range ks {
		if err := ds.replicatedPut(ctx, page.to, ks[i], vs[i]); err != nil {
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
	data, found, err := c.ds.get(ctx, c.ds.resolver(place{roleProducts, c.key.Bytes()}), id.Encode())
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
	return c.ds.has(ctx, c.ds.resolver(place{roleProducts, c.key.Bytes()}), id.Encode())
}

// ListProducts returns the label#type identifiers of the container's
// products. (The real HEPnOS deliberately does not iterate products —
// §II-C3 — but the capability is invaluable for tooling like hepnos-ls.)
func (c *container) ListProducts(ctx context.Context) ([]string, error) {
	if c.ds.closed.Load() {
		return nil, ErrClosed
	}
	pg := c.ds.pager(place{roleProducts, c.key.Bytes()}, c.key.Bytes(), listPageSize)
	var out []string
	for !pg.done {
		page, err := pg.next(ctx)
		if err != nil {
			return nil, err
		}
		for _, k := range page {
			// A descendant container's products share this prefix too
			// (its key extends ours); keep the products decoded at this
			// container's exact key length.
			id, err := keys.DecodeProductID(k, c.key.Level())
			if err != nil || !id.Container.Equal(c.key) {
				continue
			}
			out = append(out, id.Label+"#"+id.Type)
		}
	}
	return out, nil
}

// createChild writes the key of c's child container number n, placed in
// role r. Container keys have no value; presence is existence (§II-C1).
func (c *container) createChild(ctx context.Context, r role, n uint64) (container, error) {
	if c.ds.closed.Load() {
		return container{}, ErrClosed
	}
	k := c.key.Child(n)
	return container{ds: c.ds, key: k}, c.ds.replicatedPut(ctx, place{r, c.key.Bytes()}, k.Bytes(), nil)
}

// openChild probes for c's child container number n, placed in role r.
func (c *container) openChild(ctx context.Context, r role, n uint64) (container, bool, error) {
	if c.ds.closed.Load() {
		return container{}, false, ErrClosed
	}
	k := c.key.Child(n)
	found, err := c.ds.has(ctx, c.ds.resolver(place{r, c.key.Bytes()}), k.Bytes())
	return container{ds: c.ds, key: k}, found, err
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
	c, err := d.createChild(ctx, roleRuns, n)
	if err != nil {
		return nil, err
	}
	return &Run{container: c, dataset: d}, nil
}

// Run opens run number n, or returns ErrNoSuchContainer.
func (d *DataSet) Run(ctx context.Context, n uint64) (*Run, error) {
	c, found, err := d.openChild(ctx, roleRuns, n)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: run %d in %s", ErrNoSuchContainer, n, d.path)
	}
	return &Run{container: c, dataset: d}, nil
}

// Runs returns the run numbers in the dataset, ascending — the iterator of
// Listing 1's range-for over a dataset.
func (d *DataSet) Runs(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, d.ds, roleRuns, d.key)
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
	c, err := r.createChild(ctx, roleSubruns, n)
	if err != nil {
		return nil, err
	}
	return &SubRun{container: c, run: r}, nil
}

// SubRun opens subrun number n, or returns ErrNoSuchContainer.
func (r *Run) SubRun(ctx context.Context, n uint64) (*SubRun, error) {
	c, found, err := r.openChild(ctx, roleSubruns, n)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: subrun %d in run %d", ErrNoSuchContainer, n, r.Number())
	}
	return &SubRun{container: c, run: r}, nil
}

// SubRuns returns the subrun numbers in the run, ascending.
func (r *Run) SubRuns(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, r.ds, roleSubruns, r.key)
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
	c, err := s.createChild(ctx, roleEvents, n)
	if err != nil {
		return nil, err
	}
	return &Event{container: c, subrun: s}, nil
}

// Event opens event number n, or returns ErrNoSuchContainer.
func (s *SubRun) Event(ctx context.Context, n uint64) (*Event, error) {
	c, found, err := s.openChild(ctx, roleEvents, n)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: event %d in subrun %d", ErrNoSuchContainer, n, s.Number())
	}
	return &Event{container: c, subrun: s}, nil
}

// Events returns the event numbers in the subrun, ascending.
func (s *SubRun) Events(ctx context.Context) ([]uint64, error) {
	return listChildNumbers(ctx, s.ds, roleEvents, s.key)
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
func listChildNumbers(ctx context.Context, ds *DataStore, r role, parentKey keys.ContainerKey) ([]uint64, error) {
	pg := ds.pager(place{r, parentKey.Bytes()}, parentKey.Bytes(), listPageSize)
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
