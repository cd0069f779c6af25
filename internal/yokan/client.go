package yokan

import (
	"context"
	"errors"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

// DefaultEagerLimit is the payload size above which batch operations switch
// from inline RPC payloads to bulk (RDMA-style) transfer, mirroring
// Mercury's eager/rendezvous threshold.
const DefaultEagerLimit = 8 << 10

// DBHandle names one database served by one provider at one address; it is
// the client-side unit of placement in HEPnOS.
type DBHandle struct {
	Addr     fabric.Address
	Provider margo.ProviderID
	Name     string
}

// String renders the handle for diagnostics and ring membership.
func (h DBHandle) String() string {
	return fmt.Sprintf("%s/%d/%s", h.Addr, h.Provider, h.Name)
}

// Client issues Yokan operations from a margo instance. It does not retry:
// the resilience policy attached to the margo instance (margo.Config
// Resilience) retries transport failures inside every call.
type Client struct {
	mi *margo.Instance
	// EagerLimit is the inline-payload threshold for batch ops.
	EagerLimit int
}

// NewClient wraps a margo instance.
func NewClient(mi *margo.Instance) *Client {
	return &Client{mi: mi, EagerLimit: DefaultEagerLimit}
}

// call forwards one RPC to db's provider.
func (c *Client) call(ctx context.Context, db DBHandle, rpc string, payload []byte) ([]byte, error) {
	return c.mi.Forward(ctx, db.Addr, ServiceName, db.Provider, rpc, payload)
}

// callBorrow is call with explicit response-buffer ownership (see
// fabric.Endpoint.CallBorrow): the response may be a borrowed view into a
// pooled transport buffer and done, when non-nil, recycles it.
func (c *Client) callBorrow(ctx context.Context, db DBHandle, rpc string, payload []byte) ([]byte, func(), error) {
	return c.mi.ForwardBorrow(ctx, db.Addr, ServiceName, db.Provider, rpc, payload)
}

// forward runs one request/response RPC on the pooled wire path: the
// request is encoded into a pooled buffer (recycled when the call returns,
// since the fabric never retains payloads), and the response — decoded
// with copying Unmarshal, so nothing aliases it — is released back to the
// transport's pool before returning.
func (c *Client) forward(ctx context.Context, db DBHandle, rpc string, req any, resp any) error {
	buf := wire.Acquire(256)
	defer buf.Release()
	payload, err := serde.MarshalAppend(buf.B, req)
	if err != nil {
		return fmt.Errorf("yokan: encode %s: %w", rpc, err)
	}
	buf.B = payload
	out, done, err := c.callBorrow(ctx, db, rpc, payload)
	if err != nil {
		return err
	}
	if resp == nil {
		if done != nil {
			done()
		}
		return nil
	}
	derr := serde.Unmarshal(out, resp)
	if done != nil {
		done()
	}
	if derr != nil {
		return fmt.Errorf("yokan: decode %s response: %w", rpc, derr)
	}
	return nil
}

// forwardBorrow is forward with a zero-copy response decode: []byte fields
// of resp become views into the response buffer, which is deliberately left
// GC-owned (never recycled) because those views escape to the caller.
func (c *Client) forwardBorrow(ctx context.Context, db DBHandle, rpc string, req any, resp any) error {
	buf := wire.Acquire(256)
	defer buf.Release()
	payload, err := serde.MarshalAppend(buf.B, req)
	if err != nil {
		return fmt.Errorf("yokan: encode %s: %w", rpc, err)
	}
	buf.B = payload
	out, err := c.call(ctx, db, rpc, payload)
	if err != nil {
		return err
	}
	if err := serde.UnmarshalBorrow(out, resp); err != nil {
		return fmt.Errorf("yokan: decode %s response: %w", rpc, err)
	}
	return nil
}

// Put stores one key-value pair.
func (c *Client) Put(ctx context.Context, db DBHandle, key, val []byte) error {
	return c.forward(ctx, db, "put", putReq{DB: db.Name, Key: key, Val: val}, nil)
}

// PutMulti stores a batch of pairs, using bulk transfer when the encoded
// batch exceeds the eager limit.
func (c *Client) PutMulti(ctx context.Context, db DBHandle, keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("yokan: PutMulti with %d keys but %d values", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	req := putMultiReq{DB: db.Name, Keys: keys, Vals: vals}
	buf := wire.Acquire(c.EagerLimit)
	defer buf.Release()
	payload, err := serde.MarshalAppend(buf.B, req)
	if err != nil {
		return fmt.Errorf("yokan: encode put_multi: %w", err)
	}
	buf.B = payload
	if len(payload) <= c.EagerLimit {
		_, done, err := c.callBorrow(ctx, db, "put_multi", payload)
		if done != nil {
			done()
		}
		return err
	}
	// Bulk path: the exposed region must be GC-owned, not pooled — if the
	// RPC fails mid-pull (cancellation, injected drop), the server's pull
	// handler can still be streaming from the region after we return, so
	// recycling the encode buffer here would corrupt a live transfer.
	exposed := append([]byte(nil), payload...)
	h := c.mi.Endpoint().ExposeBulk(exposed)
	defer c.mi.Endpoint().FreeBulk(h)
	breq, err := serde.Marshal(putMultiBulkReq{Handle: h.Encode(nil)})
	if err != nil {
		return err
	}
	_, err = c.call(ctx, db, "put_multi_bulk", breq)
	return err
}

// PutIfAbsent atomically stores val under key unless the key already
// exists, returning the winning value and whether this call inserted it.
func (c *Client) PutIfAbsent(ctx context.Context, db DBHandle, key, val []byte) (winner []byte, inserted bool, err error) {
	var resp putNewResp
	if err := c.forward(ctx, db, "put_new", putReq{DB: db.Name, Key: key, Val: val}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Winner, resp.Inserted, nil
}

// Get fetches one value; ErrKeyNotFound if absent. The miss arrives as the
// typed sentinel from the provider — errors.Is(err, ErrKeyNotFound) holds
// across the wire — so there is no in-band Found flag to decode.
func (c *Client) Get(ctx context.Context, db DBHandle, key []byte) ([]byte, error) {
	var resp getResp
	if err := c.forward(ctx, db, "get", getReq{DB: db.Name, Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Val, nil
}

// GetMulti fetches a batch. The returned slices are parallel to keys; absent
// keys have found[i] == false. Large result sets are pulled via bulk when
// bulk is true.
func (c *Client) GetMulti(ctx context.Context, db DBHandle, keys [][]byte, bulk bool) (vals [][]byte, found []bool, err error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	req := getMultiReq{DB: db.Name, Keys: keys, Bulk: bulk}
	if !bulk {
		// Borrowed decode: every returned value is a view into the one
		// response buffer instead of a per-value clone — the response
		// stays GC-owned for as long as the caller holds any value.
		var resp getMultiResp
		if err := c.forwardBorrow(ctx, db, "get_multi", req, &resp); err != nil {
			return nil, nil, err
		}
		return resp.Vals, resp.Found, nil
	}
	var bresp getMultiBulkResp
	if err := c.forward(ctx, db, "get_multi", req, &bresp); err != nil {
		return nil, nil, err
	}
	h, _, err := fabric.DecodeBulkHandle(bresp.Handle)
	if err != nil {
		return nil, nil, err
	}
	data, err := c.mi.Endpoint().PullBulkFrom(ctx, db.Addr, h)
	// Release the server-side region on every path — a failed or cancelled
	// pull included, so the free ignores ctx's cancellation — or the server
	// holds the whole response until its sweep. A failed free must be
	// visible, never swallowed.
	ferr := c.bulkFree(context.WithoutCancel(ctx), db, bresp.Handle)
	if err != nil {
		return nil, nil, errors.Join(err, ferr)
	}
	// The pulled data is GC-owned, so the borrowed views alias it safely.
	var resp getMultiResp
	if derr := serde.UnmarshalBorrow(data, &resp); derr != nil {
		return nil, nil, errors.Join(fmt.Errorf("yokan: decode bulk get_multi: %w", derr), ferr)
	}
	return resp.Vals, resp.Found, ferr
}

// bulkFree asks db's provider to drop the exposed region behind handle.
func (c *Client) bulkFree(ctx context.Context, db DBHandle, handle []byte) error {
	freq, err := serde.Marshal(bulkFreeReq{Handle: handle})
	if err != nil {
		return fmt.Errorf("yokan: encode bulk_free: %w", err)
	}
	_, err = c.call(ctx, db, "bulk_free", freq)
	return err
}

// Exists checks a batch of keys.
func (c *Client) Exists(ctx context.Context, db DBHandle, keys [][]byte) ([]bool, error) {
	var resp existsResp
	if err := c.forward(ctx, db, "exists", existsReq{DB: db.Name, Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Found, nil
}

// Erase removes a batch of keys, returning how many existed.
func (c *Client) Erase(ctx context.Context, db DBHandle, keys [][]byte) (int, error) {
	var resp eraseResp
	if err := c.forward(ctx, db, "erase", eraseReq{DB: db.Name, Keys: keys}, &resp); err != nil {
		return 0, err
	}
	return int(resp.Erased), nil
}

// ListKeys returns up to max keys greater than from with the given prefix.
func (c *Client) ListKeys(ctx context.Context, db DBHandle, from, prefix []byte, max int) ([][]byte, error) {
	var resp listResp
	req := listReq{DB: db.Name, From: from, Prefix: prefix, Max: uint32(max)}
	if err := c.forward(ctx, db, "list_keys", req, &resp); err != nil {
		return nil, err
	}
	return resp.Keys, nil
}

// ListKeyVals returns up to max key-value pairs greater than from with the
// given prefix.
func (c *Client) ListKeyVals(ctx context.Context, db DBHandle, from, prefix []byte, max int) ([]KV, error) {
	var resp listResp
	req := listReq{DB: db.Name, From: from, Prefix: prefix, Max: uint32(max), Vals: true}
	if err := c.forward(ctx, db, "list_keys", req, &resp); err != nil {
		return nil, err
	}
	out := make([]KV, len(resp.Keys))
	for i := range resp.Keys {
		out[i] = KV{Key: resp.Keys[i], Val: resp.Vals[i]}
	}
	return out, nil
}

// ListDatabases asks a provider which databases it serves.
func (c *Client) ListDatabases(ctx context.Context, addr fabric.Address, id margo.ProviderID) (names, types []string, err error) {
	out, err := c.mi.Forward(ctx, addr, ServiceName, id, "db_list", nil)
	if err != nil {
		return nil, nil, err
	}
	var resp dbListResp
	if err := serde.Unmarshal(out, &resp); err != nil {
		return nil, nil, err
	}
	return resp.Names, resp.Types, nil
}
