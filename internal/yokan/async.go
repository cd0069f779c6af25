package yokan

import (
	"context"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
)

// Async operation surface: the §II-D pattern where client batch operations
// are submitted to the AsyncEngine's RPC pool and hand back an eventual
// instead of blocking. The resilience policy attached to the client's
// endpoint applies unchanged — the pool task goes through the same call
// path, so an injected fault on an async flush retries under the same
// policy and reports its final error through the eventual.

// GetMultiResult carries a GetMulti batch result through an eventual. Vals
// and Found are parallel to the submitted keys.
type GetMultiResult struct {
	Vals  [][]byte
	Found []bool
}

// PutAsync submits a single-key Put to the engine's RPC pool. Key and val
// are owned by the operation until the eventual resolves. Replicated stores
// use it to land the primary and replica copies of one product in parallel
// instead of serializing one RPC per replica.
func (c *Client) PutAsync(ctx context.Context, eng *asyncengine.Engine, db DBHandle, key, val []byte) *asyncengine.Eventual[asyncengine.Void] {
	return asyncengine.Run(eng, ctx, asyncengine.PoolRPC, func(tctx context.Context) (asyncengine.Void, error) {
		return asyncengine.Void{}, c.Put(tctx, db, key, val)
	})
}

// PutMultiAsync submits PutMulti to the engine's RPC pool. The keys and
// vals slices are owned by the operation until the eventual resolves; the
// caller must not mutate them in the meantime.
func (c *Client) PutMultiAsync(ctx context.Context, eng *asyncengine.Engine, db DBHandle, keys, vals [][]byte) *asyncengine.Eventual[asyncengine.Void] {
	return asyncengine.Run(eng, ctx, asyncengine.PoolRPC, func(tctx context.Context) (asyncengine.Void, error) {
		return asyncengine.Void{}, c.PutMulti(tctx, db, keys, vals)
	})
}

// GetMultiAsync submits GetMulti to the engine's RPC pool.
func (c *Client) GetMultiAsync(ctx context.Context, eng *asyncengine.Engine, db DBHandle, keys [][]byte, bulk bool) *asyncengine.Eventual[GetMultiResult] {
	return asyncengine.Run(eng, ctx, asyncengine.PoolRPC, func(tctx context.Context) (GetMultiResult, error) {
		vals, found, err := c.GetMulti(tctx, db, keys, bulk)
		return GetMultiResult{Vals: vals, Found: found}, err
	})
}
