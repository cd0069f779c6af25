package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"
	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/dataloader"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/h5lite"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/margo"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/qos"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// The ladder: closed-loop probes on this goroutine of one logical
// operation at increasing depth, from a serde call to a core.Load through
// every layer. A layer's self time is its rung minus the rung beneath it.
// All probes use public functions only, on data from the workload's own
// generator and seed.

const (
	ladderRungs   = 35   // probes sharing the ladder's time budget
	ladderEvents  = 4096 // events preloaded into the ladder's deployments
	ladderValueSz = 300  // bytes of a raw KV value: about one event's slices
	ladderKeys    = 20000
	batchKeys     = 1024 // get_multi / put_multi batch
)

type ladder struct {
	ctx     context.Context
	cfg     *runConfig
	rec     *recorder
	rep     *report
	perRung time.Duration
	smp     *sample
}

// rung is one probe: a metric name and the operation it times.
type rung struct {
	name string
	fn   func() error
}

// probe times fn, which handles `items` logical items per call, for the
// rung's share of the budget. It reports the median over batches of the
// time per item, in unit ("ns", "us" or "ms"), and returns the heap
// allocations per call.
func (l *ladder) probe(name, unit string, items int, fn func() error) (float64, error) {
	allocs, err := l.probes(unit, items, rung{name, fn})
	if err != nil {
		return 0, err
	}
	return allocs[0], nil
}

// probes times several rungs in alternating batches, so that drift of the
// machine lands on all of them alike and their difference is meaningful.
func (l *ladder) probes(unit string, items int, rungs ...rung) ([]float64, error) {
	batch := make([]int, len(rungs))
	for i, r := range rungs {
		// Size the batches on the second call: the first may connect.
		var t time.Time
		for n := 0; n < 2; n++ {
			t = time.Now()
			if err := r.fn(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
		}
		if batch[i] = int(200 * time.Microsecond / (time.Since(t) + 1)); batch[i] < 1 {
			batch[i] = 1
		}
	}
	// Rungs timed together run equal batches, or the batch size would be
	// a second difference between them.
	for i := range batch {
		if batch[i] < batch[0] {
			batch[0] = batch[i]
		}
	}
	for i := range batch {
		batch[i] = batch[0]
	}
	per := make([][]float64, len(rungs))
	spans := make([]openSpan, len(rungs))
	for i, r := range rungs {
		spans[i] = l.rec.start("ladder:"+r.name, openSpan{})
	}
	budget := l.perRung * time.Duration(len(rungs))
	for start := time.Now(); time.Since(start) < budget || len(per[0]) < 3; {
		for i, r := range rungs {
			t := time.Now()
			for n := 0; n < batch[i]; n++ {
				if err := r.fn(); err != nil {
					return nil, fmt.Errorf("%s: %w", r.name, err)
				}
			}
			per[i] = append(per[i], float64(time.Since(t))/float64(batch[i]*items))
		}
	}
	// Allocations are counted in a pass of their own: reading the memory
	// statistics stops the world, which the timed batches should not see.
	allocs := make([]float64, len(rungs))
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	var ms0, ms1 runtime.MemStats
	for i, r := range rungs {
		runtime.ReadMemStats(&ms0)
		for n := 0; n < batch[i]; n++ {
			if err := r.fn(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		spans[i].end()
		allocs[i] = float64(ms1.Mallocs-ms0.Mallocs) / float64(batch[i])
		calls := len(per[i]) * batch[i]
		l.rep.set(r.name, unit, median(per[i])/div, calls)
		l.rep.Extra[r.name+".allocs_per_call"] = value{Value: allocs[i], Unit: "count", N: batch[i]}
	}
	return allocs, nil
}

func runLadder(ctx context.Context, cfg *runConfig, dur time.Duration, rec *recorder, rep *report) error {
	l := &ladder{ctx: ctx, cfg: cfg, rec: rec, rep: rep, perRung: dur / ladderRungs}
	var err error
	if l.smp, err = buildSample(nova.GenParams{Seed: cfg.seed}, ladderEvents); err != nil {
		return err
	}
	for _, part := range []func() error{
		l.cpuRungs, l.schedRungs, l.fabricRungs, l.backendRungs, l.fileRungs,
		l.chainRungs, l.columnarRungs,
	} {
		if err := part(); err != nil {
			return err
		}
	}
	l.shares()
	return nil
}

// events returns the first n sample events that have slices.
func (l *ladder) events(n int) []*nova.Event {
	var out []*nova.Event
	for _, fd := range l.smp.files {
		for e := range fd.Events {
			if len(fd.Events[e].Slices) > 0 && len(out) < n {
				out = append(out, &fd.Events[e])
			}
		}
	}
	return out
}

func countSlices(evs []*nova.Event) int {
	n := 0
	for _, ev := range evs {
		n += len(ev.Slices)
	}
	return n
}

// cpuRungs are the probes that never leave this goroutine.
func (l *ladder) cpuRungs() error {
	evs := l.events(256)
	nSlices := countSlices(evs)
	var buf []byte
	if _, err := l.probe("serde.marshal_ns_per_slice", "ns", nSlices, func() (err error) {
		for _, ev := range evs {
			if buf, err = serde.MarshalAppend(buf[:0], ev.Slices); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	encoded := make([][]byte, len(evs))
	for i, ev := range evs {
		encoded[i], _ = serde.Marshal(ev.Slices)
	}
	var out []nova.Slice
	allocs, err := l.probe("serde.unmarshal_ns_per_slice", "ns", nSlices, func() error {
		for _, data := range encoded {
			out = out[:0]
			if err := serde.Unmarshal(data, &out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.rep.set("serde.unmarshal_allocs_per_event", "count", allocs/float64(len(evs)), len(evs))
	if _, err := l.probe("serde.unmarshal_borrow_ns_per_slice", "ns", nSlices, func() error {
		for _, data := range encoded {
			out = out[:0]
			if err := serde.UnmarshalBorrow(data, &out); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// One 256-row page, the size core seals pages at.
	schema, err := serde.ColumnSchemaOf([]nova.Slice{})
	if err != nil {
		return err
	}
	var page []nova.Slice
	for _, ev := range evs {
		page = append(page, ev.Slices...)
	}
	page = page[:256]
	var seg wire.Segment
	var cols [][]byte
	if _, err := l.probe("serde.columns_encode_ns_per_row", "ns", len(page), func() (err error) {
		seg.Release()
		cols, _, err = schema.MarshalColumns(&seg, page, cols[:0])
		return err
	}); err != nil {
		return err
	}
	cvne, cale := schema.FieldIndex("CVNe"), schema.FieldIndex("CalE")
	chunk := append([]byte(nil), cols[cvne]...)
	kind := schema.Field(cvne).Kind
	vecs := make([][]float64, schema.NumFields())
	if _, err := l.probe("serde.column_decode_ns_per_row", "ns", len(page), func() (err error) {
		vecs[cvne], err = serde.DecodeNumericColumn(kind, chunk, len(page), vecs[cvne])
		return err
	}); err != nil {
		return err
	}
	if vecs[cale], err = serde.DecodeNumericColumn(schema.Field(cale).Kind, cols[cale], len(page), nil); err != nil {
		return err
	}
	pred, err := scanPredicate().Bind(schema)
	if err != nil {
		return err
	}
	mask := make([]bool, len(page))
	if _, err := l.probe("serde.predicate_eval_ns_per_row", "ns", len(page), func() error {
		return pred.Eval(vecs, len(page), mask)
	}); err != nil {
		return err
	}
	seg.Release()

	id := keys.ProductID{Container: keys.ForDataSet([keys.UUIDLen]byte{1}).Child(1000).Child(3).Child(77),
		Label: sliceLabel, Type: serde.TypeName([]nova.Slice{})}
	if _, err := l.probe("keys.product_encode_ns", "ns", 1, func() error {
		buf = id.AppendEncode(buf[:0])
		return nil
	}); err != nil {
		return err
	}
	if _, err := l.probe("wire.acquire_release_ns", "ns", 1, func() error {
		wire.Acquire(256).Release()
		return nil
	}); err != nil {
		return err
	}
	selected := 0
	if _, err := l.probe("nova.select_ns_per_slice", "ns", nSlices, func() error {
		for _, ev := range evs {
			selected += len(nova.SelectEvent(ev))
		}
		return nil
	}); err != nil {
		return err
	}
	gate := qos.NewGate(qos.Config{Enabled: true})
	ident := qos.Identity{Class: qos.ClassInteractive}
	ran := 0
	_, err = l.probe("qos.gate_uncontended_ns", "ns", 1, func() error {
		if err := gate.Submit(ident, ladderValueSz, func() { ran++ }); err != nil {
			return err
		}
		gate.RunNext()
		return nil
	})
	return err
}

// schedRungs time one hand-off through each scheduler.
func (l *ladder) schedRungs() error {
	rt, err := argo.NewRuntime(argo.DefaultConfig(1))
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	pool := rt.Pools()[0]
	done := make(chan struct{})
	if _, err := l.probe("argo.pool_handoff_us", "us", 1, func() error {
		if err := pool.Push(func() { done <- struct{}{} }); err != nil {
			return err
		}
		<-done
		return nil
	}); err != nil {
		return err
	}
	eng, err := asyncengine.New(asyncengine.DefaultConfig())
	if err != nil {
		return err
	}
	defer eng.Shutdown()
	_, err = l.probe("asyncengine.run_wait_us", "us", 1, func() error {
		_, err := eng.Submit(l.ctx, asyncengine.PoolRPC, func(context.Context) error { return nil }).Wait(l.ctx)
		return err
	})
	return err
}

// echoPair is a bare fabric endpoint pair; call sends payload to an echo
// handler and waits for it to come back.
func (l *ladder) echoPair(scheme string, size int) (call func() error, closeFn func(), err error) {
	srvAddr, cliAddr := fabric.Address(scheme+"://127.0.0.1:0"), fabric.Address(scheme+"://127.0.0.1:0")
	if scheme == "inproc" {
		srvAddr, cliAddr = "inproc://ladder-srv", "inproc://ladder-cli"
	}
	srv, err := fabric.Listen(srvAddr)
	if err != nil {
		return nil, nil, err
	}
	srv.Register("echo", echo)
	cli, err := fabric.Listen(cliAddr)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	payload := make([]byte, size)
	call = func() error {
		_, err := cli.Call(l.ctx, srv.Addr(), "echo", payload)
		return err
	}
	return call, func() { cli.Close(); srv.Close() }, nil
}

func echo(_ context.Context, req *fabric.Request) ([]byte, error) {
	return append([]byte(nil), req.Payload...), nil
}

// fabricRungs time the echo round trips that are not part of the chain.
func (l *ladder) fabricRungs() error {
	for _, c := range []struct {
		name, scheme string
		size         int
	}{{"fabric.tcp_rtt_64KiB_us", "tcp", 64 << 10}, {"fabric.inproc_rtt_256B_us", "inproc", 256}} {
		call, closeFn, err := l.echoPair(c.scheme, c.size)
		if err != nil {
			return err
		}
		_, err = l.probe(c.name, "us", 1, call)
		closeFn()
		if err != nil {
			return err
		}
	}
	return nil
}

// nullProvider is a margo server whose only provider echoes, with the qos
// gate off or on, and a client forwarding 256 bytes to it: fabric plus
// provider dispatch plus the argo pool hand-off, and nothing else.
func (l *ladder) nullProvider(cli *margo.Instance, gate bool) (call func() error, closeFn func(), err error) {
	srv, err := margo.Init(margo.Config{Address: "tcp://127.0.0.1:0", RPCXStreams: 2, QoS: qos.Config{Enabled: gate}})
	if err != nil {
		return nil, nil, err
	}
	if _, err := srv.RegisterProvider("null", 1, nil, map[string]fabric.Handler{"null": echo}); err != nil {
		srv.Finalize()
		return nil, nil, err
	}
	payload := make([]byte, 256)
	call = func() error {
		_, err := cli.Forward(l.ctx, srv.Addr(), "null", 1, "null", payload)
		return err
	}
	return call, srv.Finalize, nil
}

func ladderKey(i int) []byte {
	k := make([]byte, 0, 24)
	k = append(k, "ladder/key/"...)
	return binary.BigEndian.AppendUint64(k, uint64(i))
}

// backendRungs call a yokan backend directly: the floor under every RPC.
func (l *ladder) backendRungs() error {
	val := make([]byte, ladderValueSz)
	rng := stats.NewRNG(l.cfg.seed)
	load := func(db yokan.Backend) error {
		for i := 0; i < ladderKeys; i++ {
			if err := db.Put(ladderKey(i), val); err != nil {
				return err
			}
		}
		return nil
	}
	mdb, err := yokan.OpenBackend(yokan.DBConfig{Name: "ladder-map", Type: "map"})
	if err != nil {
		return err
	}
	defer mdb.Close()
	if err := load(mdb); err != nil {
		return err
	}
	if _, err := l.probe("yokan.map.get_ns", "ns", 1, func() error {
		_, err := mdb.Get(ladderKey(rng.Intn(ladderKeys)))
		return err
	}); err != nil {
		return err
	}
	next := ladderKeys
	if _, err := l.probe("yokan.map.put_ns", "ns", 1, func() error {
		next++
		return mdb.Put(ladderKey(next), val)
	}); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(l.cfg.tmp, "ladder-lsm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := yokan.DefaultLSMOptions()
	opts.MemtableBytes = memtableMB << 20
	open := func(name string, cache bool) (yokan.Backend, error) {
		o := opts
		o.DisableBlockCache = !cache
		return yokan.OpenBackendEnv(yokan.DBConfig{Name: name, Type: "lsm", Path: filepath.Join(dir, name)},
			&yokan.StorageEnv{Options: o})
	}
	// Loaded and flushed, so that reads go to tables: through the block
	// cache (a hit) or, with the cache off, to the file every time (a miss
	// that the OS cache still serves).
	type flusher interface{ Flush() error }
	for _, c := range []struct {
		metric string
		cache  bool
	}{{"yokan.lsm.get_hit_us", true}, {"yokan.lsm.get_miss_us", false}} {
		db, err := open(c.metric, c.cache)
		if err != nil {
			return err
		}
		if err = load(db); err == nil {
			err = db.(flusher).Flush()
		}
		if err == nil {
			hot := 256 // a few blocks: resident after the first touches
			if !c.cache {
				hot = ladderKeys
			}
			_, err = l.probe(c.metric, "us", 1, func() error {
				_, err := db.Get(ladderKey(rng.Intn(hot)))
				return err
			})
		}
		db.Close()
		if err != nil {
			return err
		}
	}
	db, err := open("ladder-lsm", true)
	if err != nil {
		return err
	}
	if err := load(db); err != nil {
		db.Close()
		return err
	}
	next = ladderKeys
	if _, err := l.probe("yokan.lsm.put_us", "us", 1, func() error {
		next++
		return db.Put(ladderKey(next), val)
	}); err != nil {
		db.Close()
		return err
	}
	if _, err := l.probe("yokan.lsm.listkeys_ns_per_key", "ns", batchKeys, func() error {
		page, err := db.ListKeys(ladderKey(rng.Intn(ladderKeys-batchKeys)), []byte("ladder/"), batchKeys)
		if err == nil && len(page) != batchKeys {
			err = fmt.Errorf("listed %d keys of %d", len(page), batchKeys)
		}
		return err
	}); err != nil {
		db.Close()
		return err
	}
	// Reopen: manifest, tables and the replay of the unflushed log tail.
	if err := db.Close(); err != nil {
		return err
	}
	_, err = l.probe("yokan.lsm.reopen_ms", "ms", 1, func() error {
		db, err := open("ladder-lsm", true)
		if err != nil {
			return err
		}
		return db.Close()
	})
	return err
}

// fileRungs time the file side: the data loader's decode and the paper's
// file-based baseline over the files select-mem would use.
func (l *ladder) fileRungs() error {
	dir, err := os.MkdirTemp(l.cfg.tmp, "ladder-files-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	smp, err := buildSample(selectParams(l.cfg.seed), int(float64(selectEvents)*l.cfg.scale)+64)
	if err != nil {
		return err
	}
	paths, err := smp.writeFiles(dir)
	if err != nil {
		return err
	}
	schemas, err := dataloader.InspectFile(paths[0])
	if err != nil {
		return err
	}
	binding, err := dataloader.Bind(nova.Slice{}, schemas[0])
	if err != nil {
		return err
	}
	if _, err := l.probe("dataloader.decode_ns_per_row", "ns", smp.files[0].NumSlices(), func() error {
		f, err := h5lite.Open(paths[0])
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = binding.ReadEvents(f)
		return err
	}); err != nil {
		return err
	}
	var thr []float64
	sp := l.rec.start("ladder:filebased.slices_per_s", openSpan{})
	for start := time.Now(); time.Since(start) < l.perRung || len(thr) < 3; {
		res, err := filebased.Run(filebased.Config{Files: paths, Processes: l.cfg.clients})
		if err != nil {
			return err
		}
		thr = append(thr, res.Throughput)
	}
	sp.end()
	l.rep.set("filebased.slices_per_s", "1/s", median(thr), len(thr))
	return nil
}

// rowSlice is nova.Slice under another name. The row-path rungs store it
// so that they stay on the row path in the scan-lsm process too, where
// []nova.Slice is registered columnar before the ladder runs; the bytes
// on the wire differ only in the type name inside the product key.
type rowSlice nova.Slice

func rowValue(s []nova.Slice) any {
	out := make([]rowSlice, len(s))
	for i := range s {
		out[i] = rowSlice(s[i])
	}
	return out
}

func sameRows(got []rowSlice, want []nova.Slice) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if nova.Slice(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// chainRungs are the ladder proper: the same 256–300 byte round trip at
// five depths, from a bare fabric echo to a core.Load and core.Store,
// against a deployment shaped like point-mixed's. The seven rungs are
// timed in alternating batches, because a layer's self time is the
// difference of two of them and the machine drifts more between two
// separate probes than some layers cost.
func (l *ladder) chainRungs() error {
	dir, err := os.MkdirTemp(l.cfg.tmp, "ladder-svc-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := startService(l.ctx, shape{backend: "lsm", dir: dir, rf: 2, qos: true})
	if err != nil {
		return err
	}
	defer svc.stop()
	rtt, closeEcho, err := l.echoPair("tcp", 256)
	if err != nil {
		return err
	}
	defer closeEcho()
	cli, err := margo.Init(margo.Config{Address: "tcp://127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer cli.Finalize()
	null, closeNull, err := l.nullProvider(cli, false)
	if err != nil {
		return err
	}
	defer closeNull()
	nullQoS, closeNullQoS, err := l.nullProvider(cli, true)
	if err != nil {
		return err
	}
	defer closeNullQoS()

	yc, db := svc.ds.Yokan(), svc.ds.EventDatabases()[0]
	val := make([]byte, ladderValueSz)
	rng := stats.NewRNG(l.cfg.seed)
	ks, vs := make([][]byte, batchKeys), make([][]byte, batchKeys)
	for i := range ks {
		ks[i], vs[i] = ladderKey(i), val
	}
	if err := yc.PutMulti(l.ctx, db, ks, vs); err != nil {
		return err
	}
	// The write-batch rung is a preload, three times over.
	var refs []eventRef
	var perEvent []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, refs, err = preload(l.ctx, svc.ds, l.smp, fmt.Sprintf("ladder/row-%d", i), rowValue); err != nil {
			return err
		}
		perEvent = append(perEvent, float64(time.Since(t0).Microseconds())/float64(len(refs)))
	}
	l.rep.set("core.writebatch_row_us_per_event", "us", median(perEvent), len(perEvent)*len(refs))

	nextKey, nextLabel := batchKeys, 0
	var got []rowSlice
	allocs, err := l.probes("us", 1,
		rung{"fabric.tcp_rtt_256B_us", rtt},
		rung{"margo.forward_null_us", null},
		rung{"margo.forward_null_qos_us", nullQoS},
		rung{"yokan.rpc.get_us", func() error {
			_, err := yc.Get(l.ctx, db, ks[rng.Intn(batchKeys)])
			return err
		}},
		rung{"yokan.rpc.put_us", func() error {
			nextKey++
			return yc.Put(l.ctx, db, ladderKey(nextKey), val)
		}},
		rung{"core.load_us", func() error {
			ref := refs[rng.Intn(len(refs))]
			got = got[:0]
			if err := ref.ev.Load(l.ctx, sliceLabel, &got); err != nil {
				return err
			}
			if !sameRows(got, ref.data.Slices) {
				return fmt.Errorf("load %s differs from the generated event", ref.ev.ID())
			}
			return nil
		}},
		rung{"core.store_us", func() error {
			nextLabel++
			ref := refs[rng.Intn(len(refs))]
			return ref.ev.Store(l.ctx, fmt.Sprintf("ladder-%d", nextLabel), rowValue(ref.data.Slices))
		}},
	)
	if err != nil {
		return err
	}
	l.rep.set("fabric.tcp_allocs_per_call", "count", allocs[0], l.rep.Metrics["fabric.tcp_rtt_256B_us"].N)

	if _, err := l.probe("yokan.rpc.get_multi_us_per_key", "us", batchKeys, func() error {
		_, found, err := yc.GetMulti(l.ctx, db, ks, true)
		if err == nil && !found[batchKeys-1] {
			err = fmt.Errorf("get_multi missed a stored key")
		}
		return err
	}); err != nil {
		return err
	}
	if _, err := l.probe("yokan.rpc.put_multi_us_per_key", "us", batchKeys, func() error {
		return yc.PutMulti(l.ctx, db, ks, vs)
	}); err != nil {
		return err
	}
	evKeys := make([][]byte, len(refs))
	for i, ref := range refs {
		evKeys[i] = ref.ev.Key().Bytes()
	}
	pf := svc.ds.NewPrefetcher(core.SelectorFor(sliceLabel, []rowSlice{}))
	_, err = l.probe("core.prefetch_us_per_event", "us", len(evKeys), func() error {
		entries, degraded, _ := pf.Fetch(l.ctx, evKeys)
		if degraded != 0 || len(entries) != len(evKeys) {
			return fmt.Errorf("prefetch returned %d of %d products, %d degraded", len(entries), len(evKeys), degraded)
		}
		return nil
	})
	return err
}

// columnarRungs repeat the core rungs with []nova.Slice registered
// columnar, and time the pushdown scan from the client and per RPC.
func (l *ladder) columnarRungs() error {
	if _, err := serde.RegisterColumnar([]nova.Slice{}); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(l.cfg.tmp, "ladder-col-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := startService(l.ctx, shape{backend: "lsm", dir: dir, rf: 2, qos: true})
	if err != nil {
		return err
	}
	defer svc.stop()
	t0 := time.Now()
	dataset, refs, err := preload(l.ctx, svc.ds, l.smp, datasetPath, nil)
	if err != nil {
		return err
	}
	l.rep.set("core.writebatch_columnar_us_per_event", "us", float64(time.Since(t0).Microseconds())/float64(len(refs)), len(refs))
	withRows := refs[:0:0]
	for _, ref := range refs {
		if len(ref.data.Slices) > 0 {
			withRows = append(withRows, ref)
		}
	}
	rng := stats.NewRNG(l.cfg.seed)
	var got []nova.Slice
	if _, err := l.probe("core.load_columnar_us", "us", 1, func() error {
		ref := withRows[rng.Intn(len(withRows))]
		got = got[:0]
		if err := ref.ev.Load(l.ctx, sliceLabel, &got); err != nil {
			return err
		}
		if !sameSlices(got, ref.data.Slices) {
			return fmt.Errorf("columnar load %s differs from the generated event", ref.ev.ID())
		}
		return nil
	}); err != nil {
		return err
	}
	want := l.smp.scanExpect()
	scanSeconds := func() float64 {
		total := 0.0
		for _, p := range svc.ds.Margo().Endpoint().Profile() {
			if strings.HasSuffix(p.RPC, "#scan") {
				total += p.Total.Seconds()
			}
		}
		return total
	}
	rpc0 := scanSeconds()
	if _, err := l.probe("core.scan_ns_per_row", "ns", l.smp.slices, func() error {
		cur := dataset.Scan(l.ctx, sliceLabel, []nova.Slice{}, scanPredicate(), "CVNe", "CalE")
		matched := 0
		for cur.Next() {
			matched += cur.NumRows()
		}
		if err := cur.Err(); err != nil {
			return err
		}
		if matched != want.matched {
			return fmt.Errorf("scan matched %d rows, a client-side filter %d", matched, want.matched)
		}
		return nil
	}); err != nil {
		return err
	}
	// The scan RPCs' share of those passes, from the client endpoint's own
	// per-RPC round-trip totals (the probe above ran one extra pass to
	// calibrate).
	passes := l.rep.Metrics["core.scan_ns_per_row"].N + 1
	l.rep.set("yokan.rpc.scan_ns_per_row", "ns", (scanSeconds()-rpc0)*1e9/float64(passes*l.smp.slices), passes)
	return nil
}

// ladderShareLine is one layer's self time on the way to a core.Load or
// core.Store, and its share of the whole.
type ladderShareLine struct {
	Op     string  `json:"op"`
	Layer  string  `json:"layer"`
	Rung   string  `json:"rung"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// shares derives the self times: each rung minus the rung beneath it.
func (l *ladder) shares() {
	m := func(name string) float64 { return l.rep.Metrics[name].Value }
	for _, op := range []struct{ name, rpc, top string }{
		{"load", "yokan.rpc.get_us", "core.load_us"},
		{"store", "yokan.rpc.put_us", "core.store_us"},
	} {
		rungs := []struct{ layer, rung string }{
			{"fabric", "fabric.tcp_rtt_256B_us"},
			{"margo+argo", "margo.forward_null_us"},
			{"qos", "margo.forward_null_qos_us"},
			{"yokan", op.rpc},
			{"core", op.top},
		}
		below := 0.0
		for _, r := range rungs {
			l.rep.Ladder = append(l.rep.Ladder, ladderShareLine{
				Op: op.name, Layer: r.layer, Rung: r.rung,
				SelfUs: m(r.rung) - below, Share: ratio(m(r.rung)-below, m(op.top)),
			})
			below = m(r.rung)
		}
	}
}
