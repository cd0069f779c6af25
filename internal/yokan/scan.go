package yokan

import (
	"context"
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// Server-side predicate pushdown over columnar pages: the scan RPC walks a
// page group's row-meta entries, decodes only the columns the predicate
// needs, evaluates it vectorized, and returns surviving event IDs plus the
// requested columns filtered to surviving rows. The reply carries the
// byte-accounting the hepnos_scan_* metrics and the paper's wire-saving
// claim rest on: FullBytes is what the row path would have shipped for the
// scanned range, ReturnedBytes what the scan actually shipped.

// DefaultScanPages is the per-RPC page budget when the request does not
// set one; it bounds server work per call, and the More cursor resumes.
const DefaultScanPages = 64

// maxColID is the widest possible schema (column ids are one key byte,
// with RowMetaCol reserved).
const maxColID = int(RowMetaCol)

// chunkMemo caches one decoded field page during a page's evaluation.
type chunkMemo struct {
	kind  serde.ColKind
	chunk []byte
}

type (
	scanReq struct {
		DB    string
		Group []byte   // page-group key prefix, opaque to the server
		Pred  []byte   // serde-encoded bound Predicate; empty selects all rows
		Cols  []uint32 // column ids to return, filtered to surviving rows
		Lo    uint64   // inclusive event-number range; Lo=0, Hi=MaxUint64 is open
		Hi    uint64
		Pages uint32 // page budget for this call (0 = DefaultScanPages)
		From  []byte // resume cursor: the More value of the previous reply
	}
	scanResp struct {
		Events []uint64 // per surviving row, ascending (repeats per row)
		Kinds  []uint8  // column kinds, parallel to the request's Cols
		Cols   [][]byte // filtered column chunks, parallel to Cols
		More   []byte   // non-nil: resume key for the next call
		// Accounting, summed over the pages this call examined.
		PagesScanned  uint64
		RowsScanned   uint64
		RowsMatched   uint64
		FullBytes     uint64 // row-path bytes the scanned products occupy
		ReturnedBytes uint64 // column bytes + event ids actually returned
	}
)

// decodeScanReq decodes a scan request and its predicate from untrusted
// bytes. The predicate crosses the wire pre-bound (column ids, not names);
// structural validation bounds recursion and node count regardless of what
// the client sent. Predicate decode copies, so pred aliases nothing; req's
// byte fields borrow payload (see decodeReq).
func decodeScanReq(payload []byte, req *scanReq, pred *serde.Predicate) (havePred bool, err error) {
	if err := decodeReq(payload, req); err != nil {
		return false, err
	}
	if len(req.Pred) > 0 {
		if err := serde.Unmarshal(req.Pred, pred); err != nil {
			return false, fmt.Errorf("yokan: bad scan predicate: %w", err)
		}
		if err := pred.Validate(); err != nil {
			return false, fmt.Errorf("yokan: bad scan predicate: %w", err)
		}
	}
	for _, c := range req.Cols {
		if int(c) >= maxColID {
			return false, fmt.Errorf("yokan: scan column id %d out of range", c)
		}
	}
	return len(req.Pred) > 0, nil
}

func (p *Provider) handleScan(ctx context.Context, r *fabric.Request) ([]byte, error) {
	var (
		req  scanReq
		pred serde.Predicate
	)
	havePred, err := decodeScanReq(r.Payload, &req, &pred)
	if err != nil {
		return nil, err
	}
	db, err := p.lookup(req.DB)
	if err != nil {
		return nil, err
	}
	done := p.track(ctx, req.DB, "scan")
	resp, err := scanPages(db, &req, pred, havePred)
	done(err)
	if err != nil {
		return nil, err
	}
	p.scanPagesTotal.Add(int64(resp.PagesScanned))
	p.scanRowsScanned.Add(int64(resp.RowsScanned))
	p.scanRowsMatched.Add(int64(resp.RowsMatched))
	p.scanBytesReturned.Add(int64(resp.ReturnedBytes))
	if resp.FullBytes > resp.ReturnedBytes {
		p.scanBytesSaved.Add(int64(resp.FullBytes - resp.ReturnedBytes))
	}
	return encodeResp(resp)
}

// scanPages executes the scan against the backend. All returned byte
// slices are either fresh appends or clones from the backend — never views
// into the borrowed request.
func scanPages(db Backend, req *scanReq, pred serde.Predicate, havePred bool) (*scanResp, error) {
	budget := int(req.Pages)
	if budget <= 0 {
		budget = DefaultScanPages
	}
	hi := req.Hi
	metaPrefix := append(append([]byte(nil), req.Group...), RowMetaCol)
	kvs, err := db.ListKeyVals(req.From, metaPrefix, budget)
	if err != nil {
		return nil, err
	}
	resp := &scanResp{
		Kinds: make([]uint8, len(req.Cols)),
		Cols:  make([][]byte, len(req.Cols)),
	}
	var (
		meta     PageMeta
		keep     []bool
		predMask []bool
		vecs     [][]float64
		svecs    [][]string
		keyBuf   []byte
		pages    map[byte]chunkMemo
	)
	for _, kv := range kvs {
		group, col, firstEvent, ok := SplitPageKey(kv.Key)
		if !ok || col != RowMetaCol {
			return nil, fmt.Errorf("yokan: malformed page key %x", kv.Key)
		}
		if err := DecodePageMeta(kv.Val, &meta); err != nil {
			return nil, err
		}
		resp.PagesScanned++
		resp.RowsScanned += meta.Rows
		resp.FullBytes += meta.FullBytes
		rows := int(meta.Rows)
		if meta.LastEvent() < req.Lo || meta.FirstEvent() > hi {
			continue
		}

		// Range mask: rows of events outside [Lo, Hi] are dropped before
		// the predicate ever runs.
		if cap(keep) < rows {
			keep = make([]bool, rows)
		}
		keep = keep[:rows]
		any := false
		ri := 0
		for _, ev := range meta.Events {
			in := ev.Event >= req.Lo && ev.Event <= hi
			for j := uint64(0); j < ev.Rows; j++ {
				keep[ri] = in
				ri++
			}
			any = any || (in && ev.Rows > 0)
		}
		if ri != rows {
			return nil, fmt.Errorf("yokan: row-meta rows mismatch")
		}
		if !any {
			continue
		}

		if pages == nil {
			pages = make(map[byte]chunkMemo, len(req.Cols)+4)
		} else {
			clear(pages)
		}
		// getChunk memoizes per page, so one fetch serves both the
		// predicate columns and the projection. Backend Get returns a
		// GC-owned copy, so the chunk views are safe to retain.
		getChunk := func(id byte) (serde.ColKind, []byte, error) {
			if m, ok := pages[id]; ok {
				return m.kind, m.chunk, nil
			}
			keyBuf = AppendPageKey(keyBuf[:0], group, id, firstEvent)
			v, err := db.Get(keyBuf)
			if err != nil {
				return 0, nil, fmt.Errorf("yokan: column %d page missing for event %d: %w", id, firstEvent, err)
			}
			kind, prows, chunk, err := DecodeFieldPage(v)
			if err != nil {
				return 0, nil, err
			}
			if prows != rows {
				return 0, nil, fmt.Errorf("yokan: column %d page has %d rows, meta says %d", id, prows, rows)
			}
			pages[id] = chunkMemo{kind: kind, chunk: chunk}
			return kind, chunk, nil
		}

		if havePred {
			if vecs == nil {
				vecs = make([][]float64, maxColID)
				svecs = make([][]string, maxColID)
			}
			mark := make([]bool, maxColID)
			pred.MarkColumns(mark)
			for id, m := range mark {
				if !m {
					continue
				}
				kind, chunk, err := getChunk(byte(id))
				if err != nil {
					return nil, err
				}
				// The stored kind, not the predicate op, picks the decoder:
				// a numeric leaf over a string column (or vice versa) leaves
				// its vector nil and EvalCols rejects it as not decoded.
				if kind == serde.ColString {
					svecs[id], err = serde.DecodeStringColumn(kind, chunk, rows, svecs[id])
				} else {
					vecs[id], err = serde.DecodeNumericColumn(kind, chunk, rows, vecs[id])
				}
				if err != nil {
					return nil, err
				}
			}
			if cap(predMask) < rows {
				predMask = make([]bool, rows)
			}
			predMask = predMask[:rows]
			if err := pred.EvalCols(vecs, svecs, rows, predMask); err != nil {
				return nil, err
			}
			for i := 0; i < rows; i++ {
				keep[i] = keep[i] && predMask[i]
			}
		}

		matched := 0
		for i := 0; i < rows; i++ {
			if keep[i] {
				matched++
			}
		}
		if matched == 0 {
			continue
		}
		resp.RowsMatched += uint64(matched)
		ri = 0
		for _, ev := range meta.Events {
			for j := uint64(0); j < ev.Rows; j++ {
				if keep[ri] {
					resp.Events = append(resp.Events, ev.Event)
				}
				ri++
			}
		}
		for ci, id := range req.Cols {
			kind, chunk, err := getChunk(byte(id))
			if err != nil {
				return nil, err
			}
			if resp.Kinds[ci] != 0 && resp.Kinds[ci] != uint8(kind) {
				return nil, fmt.Errorf("yokan: column %d kind changed across pages", id)
			}
			resp.Kinds[ci] = uint8(kind)
			resp.Cols[ci], err = serde.FilterColumn(kind, chunk, rows, keep, resp.Cols[ci])
			if err != nil {
				return nil, err
			}
		}
	}
	if len(kvs) == budget {
		resp.More = kvs[len(kvs)-1].Key
	}
	for _, c := range resp.Cols {
		resp.ReturnedBytes += uint64(len(c))
	}
	resp.ReturnedBytes += 8 * uint64(len(resp.Events))
	return resp, nil
}

// ScanRequest is the client-side scan specification for one page group on
// one database.
type ScanRequest struct {
	Group []byte          // page-group prefix (core builds it from container+label+type)
	Pred  serde.Predicate // bound predicate; zero value selects all rows
	Cols  []uint32        // column ids to return
	Lo    uint64          // inclusive event range; pass Hi = ^uint64(0) for open-ended
	Hi    uint64
	Pages int    // per-call page budget (0 = server default)
	From  []byte // resume cursor from the previous ScanResult.More
}

// ScanResult is one scan call's reply. Column chunks are borrowed views
// into the GC-owned response buffer (never recycled), per DESIGN.md §12.
type ScanResult struct {
	Events        []uint64
	Kinds         []uint8
	Cols          [][]byte
	More          []byte
	PagesScanned  uint64
	RowsScanned   uint64
	RowsMatched   uint64
	FullBytes     uint64
	ReturnedBytes uint64
}

// Scan runs one pushdown scan RPC. Call again with From = result.More
// until More is empty to drain a group.
func (c *Client) Scan(ctx context.Context, db DBHandle, sr ScanRequest) (*ScanResult, error) {
	req := scanReq{
		DB: db.Name, Group: sr.Group, Cols: sr.Cols,
		Lo: sr.Lo, Hi: sr.Hi, Pages: uint32(sr.Pages), From: sr.From,
	}
	if sr.Pred.Op != serde.OpNone {
		pb, err := serde.Marshal(sr.Pred)
		if err != nil {
			return nil, fmt.Errorf("yokan: encode scan predicate: %w", err)
		}
		req.Pred = pb
	}
	// Borrowed decode: the column views alias the GC-owned response.
	var resp scanResp
	if err := c.forwardBorrow(ctx, db, "scan", req, &resp); err != nil {
		return nil, err
	}
	return scanResultOf(&resp), nil
}

func scanResultOf(resp *scanResp) *ScanResult {
	return &ScanResult{
		Events: resp.Events, Kinds: resp.Kinds, Cols: resp.Cols, More: resp.More,
		PagesScanned: resp.PagesScanned, RowsScanned: resp.RowsScanned,
		RowsMatched: resp.RowsMatched, FullBytes: resp.FullBytes,
		ReturnedBytes: resp.ReturnedBytes,
	}
}
