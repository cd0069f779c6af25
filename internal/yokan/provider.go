package yokan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// ServiceName is the provider service name on the wire.
const ServiceName = "yokan"

// Wire messages. All requests name the target database; a provider serves
// several databases, decoupling RPC execution resources from data (§II-B).
type (
	putReq struct {
		DB       string
		Key, Val []byte
	}
	putMultiReq struct {
		DB   string
		Keys [][]byte
		Vals [][]byte
	}
	// putMultiBulkReq carries a bulk handle to a serde-encoded
	// putMultiReq exposed by the client — the RDMA path for batches.
	putMultiBulkReq struct {
		Handle []byte // encoded fabric.BulkHandle
	}
	getReq struct {
		DB  string
		Key []byte
	}
	putNewResp struct {
		Inserted bool
		Winner   []byte
	}
	getResp struct {
		Val []byte
	}
	getMultiReq struct {
		DB   string
		Keys [][]byte
		// Bulk asks the server to expose the response for RDMA pull
		// instead of returning it inline.
		Bulk bool
	}
	getMultiResp struct {
		Found []bool
		Vals  [][]byte
	}
	getMultiBulkResp struct {
		Handle []byte // encoded fabric.BulkHandle over a serde getMultiResp
	}
	existsReq struct {
		DB   string
		Keys [][]byte
	}
	existsResp struct {
		Found []bool
	}
	eraseReq struct {
		DB   string
		Keys [][]byte
	}
	eraseResp struct {
		Erased uint64
	}
	listReq struct {
		DB     string
		From   []byte
		Prefix []byte
		Max    uint32
		Vals   bool // also return values
	}
	listResp struct {
		Keys [][]byte
		Vals [][]byte // empty unless requested
	}
	dbListResp struct {
		Names []string
		Types []string
	}
	bulkFreeReq struct {
		Handle []byte
	}
)

// Provider serves a set of databases over a margo instance.
type Provider struct {
	id  margo.ProviderID
	dbs map[string]Backend
	mi  *margo.Instance

	// Pushdown-scan accounting (hepnos_scan_* families; see metrics.go).
	scanPagesTotal    atomic.Int64
	scanRowsScanned   atomic.Int64
	scanRowsMatched   atomic.Int64
	scanBytesReturned atomic.Int64
	scanBytesSaved    atomic.Int64

	// opAggs[db][op] — per-database service-time aggregates; see metrics.go.
	opAggs map[string]map[string]*opAgg
}

// NewProvider opens the configured databases and registers the Yokan RPCs
// on the margo instance under the given provider id, executing in pool.
func NewProvider(mi *margo.Instance, id margo.ProviderID, pool *argo.Pool, dbs []DBConfig) (*Provider, error) {
	return NewProviderStorage(mi, id, pool, dbs, nil)
}

// NewProviderStorage is NewProvider with a shared storage environment for
// the provider's LSM databases (block cache, background compaction pool,
// tuned options). Bedrock builds one StorageEnv per server process.
func NewProviderStorage(mi *margo.Instance, id margo.ProviderID, pool *argo.Pool, dbs []DBConfig, env *StorageEnv) (*Provider, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("yokan: provider %d has no databases", id)
	}
	p := &Provider{id: id, dbs: make(map[string]Backend, len(dbs)), mi: mi}
	for _, cfg := range dbs {
		if _, dup := p.dbs[cfg.Name]; dup {
			p.closeAll()
			return nil, fmt.Errorf("yokan: duplicate database %q", cfg.Name)
		}
		b, err := OpenBackendEnv(cfg, env)
		if err != nil {
			p.closeAll()
			return nil, err
		}
		p.dbs[cfg.Name] = b
	}
	p.opAggs = newOpAggs(p.Databases())
	handlers := map[string]fabric.Handler{
		"put":            p.handlePut,
		"put_new":        p.handlePutNew,
		"put_multi":      p.handlePutMulti,
		"put_multi_bulk": p.handlePutMultiBulk,
		"get":            p.handleGet,
		"get_multi":      p.handleGetMulti,
		"exists":         p.handleExists,
		"erase":          p.handleErase,
		"list_keys":      p.handleList,
		"scan":           p.handleScan,
		"db_list":        p.handleDBList,
		"bulk_free":      p.handleBulkFree,
	}
	if _, err := mi.RegisterProvider(ServiceName, id, pool, handlers); err != nil {
		p.closeAll()
		return nil, err
	}
	return p, nil
}

// ID returns the provider id.
func (p *Provider) ID() margo.ProviderID { return p.id }

// Databases returns the names of the served databases, sorted.
func (p *Provider) Databases() []string {
	out := make([]string, 0, len(p.dbs))
	for name := range p.dbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DB exposes a served backend by name (nil if absent); used by tests and
// local tools.
func (p *Provider) DB(name string) Backend { return p.dbs[name] }

// Close closes all databases. The margo instance keeps the RPCs registered
// but they will fail with ErrDBClosed.
func (p *Provider) Close() error {
	return p.closeAll()
}

func (p *Provider) closeAll() error {
	var first error
	for _, b := range p.dbs {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (p *Provider) lookup(name string) (Backend, error) {
	b, ok := p.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDB, name)
	}
	return b, nil
}

// decodeReq decodes a request with zero-copy semantics: []byte fields of
// req (keys, values, bulk handles) are borrowed views into payload, which
// on the TCP transport is a pooled frame recycled right after the handler
// returns. This is safe because handlers only use those views within the
// request's lifetime: every backend clones keys and values it stores
// (Put/GetOrPut), and lookups (Get/Exists/Erase/List) read keys
// transiently. A handler must never let a request view escape into its
// response or into retained state.
func decodeReq[T any](payload []byte, req *T) error {
	if err := serde.UnmarshalBorrow(payload, req); err != nil {
		return fmt.Errorf("yokan: bad request: %w", err)
	}
	return nil
}

func encodeResp(resp any) ([]byte, error) {
	out, err := serde.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("yokan: encode response: %w", err)
	}
	return out, nil
}

func (p *Provider) handlePut(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req putReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	done := p.track(ctx, req.DB, "put")
	err = db.Put(req.Key, req.Val)
	done(err)
	return nil, err
}

// handlePutNew is the atomic get-or-put used for dataset-UUID agreement.
func (p *Provider) handlePutNew(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req putReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	done := p.track(ctx, req.DB, "put_new")
	winner, inserted, err := db.GetOrPut(req.Key, req.Val)
	done(err)
	if err != nil {
		return nil, err
	}
	return encodeResp(putNewResp{Inserted: inserted, Winner: winner})
}

func (p *Provider) applyPutMulti(ctx context.Context, req *putMultiReq) error {
	if len(req.Keys) != len(req.Vals) {
		return fmt.Errorf("yokan: put_multi with %d keys but %d values", len(req.Keys), len(req.Vals))
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return err
	}
	done := p.track(ctx, req.DB, "put_multi")
	for i := range req.Keys {
		if err := db.Put(req.Keys[i], req.Vals[i]); err != nil {
			done(err)
			return fmt.Errorf("yokan: put_multi item %d: %w", i, err)
		}
	}
	done(nil)
	return nil
}

func (p *Provider) handlePutMulti(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req putMultiReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	return nil, p.applyPutMulti(ctx, &req)
}

func (p *Provider) handlePutMultiBulk(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var breq putMultiBulkReq
	if err := decodeReq(r.Payload, &breq); err != nil {
		return nil, err
	}
	h, _, err := fabric.DecodeBulkHandle(breq.Handle)
	if err != nil {
		return nil, err
	}
	data, err := r.PullBulk(ctx, h)
	if err != nil {
		return nil, fmt.Errorf("yokan: bulk pull: %w", err)
	}
	var req putMultiReq
	if err := decodeReq(data, &req); err != nil {
		return nil, err
	}
	return nil, p.applyPutMulti(ctx, &req)
}

func (p *Provider) handleGet(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req getReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	done := p.track(ctx, req.DB, "get")
	val, err := db.Get(req.Key)
	switch {
	case err == nil:
		done(nil)
		return encodeResp(getResp{Val: val})
	case errors.Is(err, ErrKeyNotFound):
		// A miss is a successful operation from the service-time
		// perspective, but it crosses the wire as the typed sentinel so
		// the client observes errors.Is(err, ErrKeyNotFound) directly
		// instead of decoding a Found flag.
		done(nil)
		return nil, err
	default:
		done(err)
		return nil, err
	}
}

func (p *Provider) handleGetMulti(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req getMultiReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	resp := getMultiResp{
		Found: make([]bool, len(req.Keys)),
		Vals:  make([][]byte, len(req.Keys)),
	}
	done := p.track(ctx, req.DB, "get_multi")
	for i, k := range req.Keys {
		val, err := db.Get(k)
		switch {
		case err == nil:
			resp.Found[i] = true
			resp.Vals[i] = val
		case errors.Is(err, ErrKeyNotFound):
			// Partial misses stay in-band: a multi-get is one operation
			// whose answer legitimately mixes hits and misses.
		default:
			done(err)
			return nil, err
		}
	}
	done(nil)
	if !req.Bulk {
		return encodeResp(resp)
	}
	// RDMA path: expose the encoded response; the client pulls it and then
	// releases the region with bulk_free.
	data, err := encodeResp(resp)
	if err != nil {
		return nil, err
	}
	h := p.mi.Endpoint().ExposeBulk(data)
	return encodeResp(getMultiBulkResp{Handle: h.Encode(nil)})
}

func (p *Provider) handleBulkFree(_ context.Context, r *fabric.Request) ([]byte, error) {
	var req bulkFreeReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	h, _, err := fabric.DecodeBulkHandle(req.Handle)
	if err != nil {
		return nil, err
	}
	p.mi.Endpoint().FreeBulk(h)
	return nil, nil
}

func (p *Provider) handleExists(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req existsReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	resp := existsResp{Found: make([]bool, len(req.Keys))}
	done := p.track(ctx, req.DB, "exists")
	for i, k := range req.Keys {
		found, err := db.Exists(k)
		if err != nil {
			done(err)
			return nil, err
		}
		resp.Found[i] = found
	}
	done(nil)
	return encodeResp(resp)
}

func (p *Provider) handleErase(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req eraseReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	var erased uint64
	done := p.track(ctx, req.DB, "erase")
	for _, k := range req.Keys {
		ok, err := db.Erase(k)
		if err != nil {
			done(err)
			return nil, err
		}
		if ok {
			erased++
		}
	}
	done(nil)
	return encodeResp(eraseResp{Erased: erased})
}

func (p *Provider) handleList(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var req listReq
	if err := decodeReq(r.Payload, &req); err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	done := p.track(ctx, req.DB, "list_keys")
	if req.Vals {
		kvs, err := db.ListKeyVals(req.From, req.Prefix, int(req.Max))
		done(err)
		if err != nil {
			return nil, err
		}
		resp := listResp{}
		for _, kv := range kvs {
			resp.Keys = append(resp.Keys, kv.Key)
			resp.Vals = append(resp.Vals, kv.Val)
		}
		return encodeResp(resp)
	}
	ks, err := db.ListKeys(req.From, req.Prefix, int(req.Max))
	done(err)
	if err != nil {
		return nil, err
	}
	return encodeResp(listResp{Keys: ks})
}

func (p *Provider) handleDBList(_ context.Context, _ *fabric.Request) ([]byte, error) {
	resp := dbListResp{}
	for _, name := range p.Databases() {
		resp.Names = append(resp.Names, name)
		resp.Types = append(resp.Types, p.dbs[name].Type())
	}
	return encodeResp(resp)
}
