// Package dataloader is the Go analog of HDF2HEPnOS and its generated
// DataLoader (§III-B of the paper). HDF2HEPnOS analyzes the structure of an
// HDF5 file, deduces the stored class name and its member variables, and
// generates the C++ class plus load/store functions. Go has reflection, so
// instead of emitting code to compile, Bind maps the inferred schema onto a
// user-provided struct type at runtime — and GenerateGoSource still emits
// the equivalent Go type definition for tooling parity.
//
// The Loader then ingests files in parallel: for every (run, subrun, event)
// row group it creates the corresponding HEPnOS containers and stores the
// rows as one product per event, using WriteBatch to group updates by
// target database. Ingest is the only step of a HEPnOS workflow whose
// parallelism is bounded by the file count.
package dataloader

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/h5lite"
)

// Coordinate column names recognized as run/subrun/event numbers.
var coordColumns = map[string]bool{"run": true, "subrun": true, "evt": true, "event": true}

// Member describes one inferred member variable.
type Member struct {
	Column string
	DType  h5lite.DType
}

// ClassSchema is the inferred shape of one leaf group.
type ClassSchema struct {
	Group   string // full group path
	Class   string // last path component
	Rows    int
	Members []Member // non-coordinate columns, sorted by name
}

// InspectFile infers the schema of every leaf group in an h5lite file that
// has the run/subrun/event coordinate columns.
func InspectFile(path string) ([]ClassSchema, error) {
	f, err := h5lite.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ClassSchema
	for _, g := range f.Groups() {
		if g.Column("run") == nil || g.Column("subrun") == nil ||
			(g.Column("evt") == nil && g.Column("event") == nil) {
			continue // not an event-indexed class group
		}
		cs := ClassSchema{Group: g.Path, Class: g.ClassName(), Rows: g.Rows()}
		for _, c := range g.Columns {
			if coordColumns[c.Name] {
				continue
			}
			cs.Members = append(cs.Members, Member{Column: c.Name, DType: c.DType})
		}
		sort.Slice(cs.Members, func(i, j int) bool { return cs.Members[i].Column < cs.Members[j].Column })
		out = append(out, cs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataloader: %s has no event-indexed groups", path)
	}
	return out, nil
}

// GenerateGoSource renders the Go struct definition equivalent to the
// schema — the analog of the C++ class HDF2HEPnOS generates.
func GenerateGoSource(cs ClassSchema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s was generated from h5lite group %q.\n", cs.Class, cs.Group)
	fmt.Fprintf(&b, "type %s struct {\n", cs.Class)
	for _, m := range cs.Members {
		goType := map[h5lite.DType]string{
			h5lite.Float32: "float32", h5lite.Float64: "float64",
			h5lite.Int32: "int32", h5lite.Int64: "int64",
			h5lite.Uint32: "uint32", h5lite.Uint64: "uint64",
		}[m.DType]
		fmt.Fprintf(&b, "\t%s %s\n", exportName(m.Column), goType)
	}
	b.WriteString("}\n")
	return b.String()
}

// exportName upper-cases the first rune so the field is exported.
func exportName(col string) string {
	if col == "" {
		return col
	}
	return strings.ToUpper(col[:1]) + col[1:]
}

// Binding maps schema columns onto the fields of a concrete struct type.
type Binding struct {
	Schema ClassSchema
	typ    reflect.Type
	// fieldIdx[i] is the struct field index for Members[i], or -1.
	fieldIdx []int
}

// Bind matches the schema's columns to example's struct fields by
// case-insensitive name. Every column must find a field; extra struct
// fields are left at their zero values.
func Bind(example any, cs ClassSchema) (*Binding, error) {
	t := reflect.TypeOf(example)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("dataloader: Bind needs a struct example, got %T", example)
	}
	byLower := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		byLower[strings.ToLower(f.Name)] = i
	}
	b := &Binding{Schema: cs, typ: t, fieldIdx: make([]int, len(cs.Members))}
	for i, m := range cs.Members {
		idx, ok := byLower[strings.ToLower(m.Column)]
		if !ok {
			return nil, fmt.Errorf("dataloader: no field in %s for column %q", t.Name(), m.Column)
		}
		switch t.Field(idx).Type.Kind() {
		case reflect.Float32, reflect.Float64,
			reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			return nil, fmt.Errorf("dataloader: field %s.%s has non-numeric type %s",
				t.Name(), t.Field(idx).Name, t.Field(idx).Type)
		}
		b.fieldIdx[i] = idx
	}
	return b, nil
}

// EventRows is the decoded content of one event: a slice (reflect value of
// []T) of member structs.
type EventRows struct {
	Run, SubRun, Event uint64
	// Rows is a []T as any.
	Rows any
	// Count is len(Rows).
	Count int
}

// ReadEvents loads the group's rows from the file and groups consecutive
// rows by (run, subrun, event), materializing each group as a []T.
func (b *Binding) ReadEvents(f *h5lite.File) ([]EventRows, error) {
	runs, err := f.ReadUint64(b.Schema.Group, "run")
	if err != nil {
		return nil, err
	}
	subruns, err := f.ReadUint64(b.Schema.Group, "subrun")
	if err != nil {
		return nil, err
	}
	evCol := "evt"
	if g, _ := f.Group(b.Schema.Group); g != nil && g.Column("evt") == nil {
		evCol = "event"
	}
	events, err := f.ReadUint64(b.Schema.Group, evCol)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, len(b.Schema.Members))
	for i, m := range b.Schema.Members {
		if cols[i], err = f.ReadFloat64(b.Schema.Group, m.Column); err != nil {
			return nil, err
		}
	}

	var out []EventRows
	sliceType := reflect.SliceOf(b.typ)
	var cur reflect.Value
	flushTo := -1
	for row := 0; row < len(runs); row++ {
		newEvent := flushTo < 0 ||
			out[flushTo].Run != runs[row] ||
			out[flushTo].SubRun != subruns[row] ||
			out[flushTo].Event != events[row]
		if newEvent {
			if flushTo >= 0 {
				out[flushTo].Rows = cur.Interface()
				out[flushTo].Count = cur.Len()
			}
			out = append(out, EventRows{Run: runs[row], SubRun: subruns[row], Event: events[row]})
			flushTo = len(out) - 1
			cur = reflect.MakeSlice(sliceType, 0, 8)
		}
		item := reflect.New(b.typ).Elem()
		for i := range b.Schema.Members {
			field := item.Field(b.fieldIdx[i])
			v := cols[i][row]
			switch field.Kind() {
			case reflect.Float32, reflect.Float64:
				field.SetFloat(v)
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
				field.SetInt(int64(v))
			default:
				field.SetUint(uint64(v))
			}
		}
		cur = reflect.Append(cur, item)
	}
	if flushTo >= 0 {
		out[flushTo].Rows = cur.Interface()
		out[flushTo].Count = cur.Len()
	}
	return out, nil
}

// Loader ingests files into a HEPnOS dataset.
type Loader struct {
	DS *core.DataStore
	// Label is the product label used for every stored product.
	Label string
	// BatchSize bounds the WriteBatch before an automatic flush.
	BatchSize int
	// Parallelism is the number of concurrent file ingests.
	Parallelism int
}

// IngestStats summarizes an ingest.
type IngestStats struct {
	Files    int
	Events   int
	Products int
	Rows     int
}

// IngestFile loads one file's events into the dataset through the binding.
func (l *Loader) IngestFile(ctx context.Context, dataset *core.DataSet, b *Binding, path string) (IngestStats, error) {
	var st IngestStats
	f, err := h5lite.Open(path)
	if err != nil {
		return st, err
	}
	evs, err := b.ReadEvents(f)
	f.Close()
	if err != nil {
		return st, err
	}
	// Async batch: flushes overlap with decoding the next events.
	batch := l.BatchSize
	if batch <= 0 {
		batch = 4096
	}
	wb := l.DS.NewAsyncWriteBatch(batch)
	label := l.Label
	if label == "" {
		label = "h5"
	}
	// Cache run/subrun handles; files usually hold one subrun.
	type srKey struct{ run, sub uint64 }
	runs := map[uint64]*core.Run{}
	subs := map[srKey]*core.SubRun{}
	for _, er := range evs {
		run := runs[er.Run]
		if run == nil {
			if run, err = wb.CreateRun(ctx, dataset, er.Run); err != nil {
				return st, err
			}
			runs[er.Run] = run
		}
		sk := srKey{er.Run, er.SubRun}
		sub := subs[sk]
		if sub == nil {
			if sub, err = wb.CreateSubRun(ctx, run, er.SubRun); err != nil {
				return st, err
			}
			subs[sk] = sub
		}
		ev, err := wb.CreateEvent(ctx, sub, er.Event)
		if err != nil {
			return st, err
		}
		if err := wb.Store(ctx, ev, label, er.Rows); err != nil {
			return st, err
		}
		st.Events++
		st.Products++
		st.Rows += er.Count
	}
	// Close is the §II-D barrier: it drains every asynchronous flush and
	// surfaces their errors.
	if err := wb.Close(ctx); err != nil {
		return st, err
	}
	st.Files = 1
	return st, nil
}

// IngestFiles ingests many files concurrently — one engine task per file
// on the AsyncEngine's ingest pool, at most Parallelism in flight — and
// accumulates statistics. The first error cancels the remaining files.
func (l *Loader) IngestFiles(ctx context.Context, dataset *core.DataSet, b *Binding, paths []string) (IngestStats, error) {
	workers := l.Parallelism
	if workers <= 0 {
		workers = 4
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	var (
		mu    sync.Mutex
		total IngestStats
	)
	g := l.DS.Engine().NewGroup(ctx, asyncengine.PoolIngest, workers)
	for _, p := range paths {
		path := p
		g.Go(func(tctx context.Context) error {
			st, err := l.IngestFile(tctx, dataset, b, path)
			mu.Lock()
			total.Files += st.Files
			total.Events += st.Events
			total.Products += st.Products
			total.Rows += st.Rows
			mu.Unlock()
			if err != nil {
				return fmt.Errorf("dataloader: ingest %s: %w", path, err)
			}
			return nil
		})
	}
	return total, g.Wait()
}
