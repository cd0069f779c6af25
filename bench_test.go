// Package bench holds the repository's end-to-end tests and two
// benchmarks that have no counterpart in benchmark/: the wire-path
// round-trip whose allocs/op the allocation gate holds, and the §II-C3
// ablation of placing children by their parent's key. Throughput and
// latency of the workflows themselves are measured by benchmark/ (see
// benchmark/README.md).
//
//	go test -run '^$' -bench 'WirePath|IterationPlacement' -benchmem .
package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/wire"
)

var benchSeq atomic.Int64

// BenchmarkIterationPlacementAblation measures why HEPnOS places children
// by their *parent's* key (§II-C3): iterating the events of many subruns
// takes one iterator on one database per subrun, versus interrogating
// every database and merging under per-key placement. A 100µs simulated
// RPC latency stands in for the HPC interconnect round trip.
func BenchmarkIterationPlacementAblation(b *testing.B) {
	dep, err := bedrock.Deploy(bedrock.DeploySpec{
		Servers:             2,
		ProvidersPerServer:  4,
		EventDBsPerServer:   8,
		ProductDBsPerServer: 2,
		NamePrefix:          fmt.Sprintf("bench-iter-%d", benchSeq.Add(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Shutdown)
	ctx := context.Background()
	ds, err := core.Connect(ctx, core.ClientConfig{
		Group:  dep.Group,
		NetSim: &fabric.NetSim{Latency: 100 * time.Microsecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ds.Close)
	d, err := ds.CreateDataSet(ctx, "bench/iter")
	if err != nil {
		b.Fatal(err)
	}
	run, err := d.CreateRun(ctx, 1)
	if err != nil {
		b.Fatal(err)
	}
	const subruns, eventsEach = 64, 200
	wb := ds.NewWriteBatch()
	srs := make([]*core.SubRun, subruns)
	for s := uint64(0); s < subruns; s++ {
		sr, err := wb.CreateSubRun(ctx, run, s)
		if err != nil {
			b.Fatal(err)
		}
		srs[s] = sr
		for e := uint64(0); e < eventsEach; e++ {
			if _, err := wb.CreateEvent(ctx, sr, e); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		b.Fatal(err)
	}

	b.Run("colocated-single-iterator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, sr := range srs {
				evs, err := sr.Events(ctx)
				if err != nil {
					b.Fatal(err)
				}
				total += len(evs)
			}
			if total != subruns*eventsEach {
				b.Fatalf("events = %d", total)
			}
		}
	})
	// The counterfactual: interrogate all 16 event databases per subrun
	// and merge, which is what consistent hashing of the full key would
	// force.
	b.Run("scattered-scan-all-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := 0
			for _, sr := range srs {
				n, err := scatterList(ctx, ds, sr)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
			if total != subruns*eventsEach {
				b.Fatalf("events = %d", total)
			}
		}
	})
}

// scatterList emulates the counterfactual placement: list the subrun's
// events by querying every event database and merging.
func scatterList(ctx context.Context, ds *core.DataStore, sr *core.SubRun) (int, error) {
	prefix := sr.Key().Bytes()
	n := 0
	for _, db := range ds.EventDatabases() {
		var from []byte
		for {
			page, err := ds.Yokan().ListKeys(ctx, db, from, prefix, 1024)
			if err != nil {
				return 0, err
			}
			if len(page) == 0 {
				break
			}
			for _, k := range page {
				if ck, err := keys.ParseContainerKey(k); err == nil && ck.Level() == keys.LevelEvent {
					n++
				}
			}
			from = page[len(page)-1]
		}
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Wire path: the pooled encode→frame→deliver→decode round-trip.
// ---------------------------------------------------------------------------

// BenchmarkWirePath measures one full client/server round-trip on the
// pooled wire path: MarshalAppend of a representative NOvA event into a
// pooled buffer, frame write through the fabric, borrowed server-side
// decode, response frame back, borrowed client-side decode, explicit
// release. allocs/op here is the number the tentpole refactor exists to
// hold down — it is reported for both transports.
func BenchmarkWirePath(b *testing.B) {
	ev := nova.Event{Run: 15150, SubRun: 3, Event: 77}
	for i := 0; i < 4; i++ {
		ev.Slices = append(ev.Slices, nova.Slice{
			SliceIdx: uint32(i), NHit: 120 + int32(i), CalE: 1.9,
			RemID: 0.6, CVNe: 0.84, VtxZ: 890.0, NPlanes: 42,
		})
	}
	for _, scheme := range []string{"inproc", "tcp"} {
		b.Run(scheme, func(b *testing.B) {
			srvAddr := fabric.Address(scheme + "://127.0.0.1:0")
			cliAddr := fabric.Address(scheme + "://127.0.0.1:0")
			if scheme == "inproc" {
				srvAddr, cliAddr = "inproc://wp-srv", "inproc://wp-cli"
			}
			srv, err := fabric.Listen(srvAddr)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			srv.Register("wire_echo", func(_ context.Context, req *fabric.Request) ([]byte, error) {
				// Borrowed decode straight out of the request frame; the
				// response is re-encoded so the reply exercises the encode
				// half on the server side too.
				var in nova.Event
				if err := serde.UnmarshalBorrow(req.Payload, &in); err != nil {
					return nil, err
				}
				return serde.Marshal(in)
			})
			cli, err := fabric.Listen(cliAddr)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()

			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf := wire.Acquire(256)
				payload, err := serde.MarshalAppend(buf.B, ev)
				if err != nil {
					b.Fatal(err)
				}
				buf.B = payload
				resp, done, err := cli.CallBorrow(ctx, srv.Addr(), "wire_echo", payload)
				if err != nil {
					b.Fatal(err)
				}
				var out nova.Event
				if err := serde.UnmarshalBorrow(resp, &out); err != nil {
					b.Fatal(err)
				}
				if out.Event != ev.Event || len(out.Slices) != len(ev.Slices) {
					b.Fatalf("round-trip mismatch: %+v", out)
				}
				if done != nil {
					done()
				}
				buf.Release()
			}
		})
	}
}
