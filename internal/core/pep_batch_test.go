package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/keys"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// testBatch is a work batch of n events of one subrun, each with every
// selector's product prefetched except where skip says otherwise. The
// product of event i, selector s is []particle{{X: i, Y: s}}.
func testBatch(t testing.TB, n int, sel []ProductSelector, skip func(i, s int) bool) pepWorkMsg {
	t.Helper()
	sr := keys.ForDataSet([keys.UUIDLen]byte{7}).Child(1).Child(2)
	var msg pepWorkMsg
	for i := 0; i < n; i++ {
		msg.Keys = append(msg.Keys, sr.Child(uint64(i)).Bytes())
		for s := range sel {
			if skip != nil && skip(i, s) {
				continue
			}
			data, err := serde.Marshal([]particle{{X: float32(i), Y: float32(s)}})
			if err != nil {
				t.Fatal(err)
			}
			msg.Pref = append(msg.Pref, pepPrefEntry{EventIdx: uint32(i), Sel: uint32(s), Data: data})
		}
	}
	return msg
}

func encodeBatch(t testing.TB, msg pepWorkMsg) []byte {
	t.Helper()
	data, err := serde.Marshal(&msg)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var testSelectors = []ProductSelector{SelectorFor("a", []particle{}), SelectorFor("b", []particle{})}

// TestDecodeWorkBatchPartition pins the worker's partition of a batch:
// each event gets exactly its own run of entries, Load finds a product by
// selector without a map, and a batch whose entries are out of place is
// rejected whole.
func TestDecodeWorkBatchPartition(t *testing.T) {
	ds := new(DataStore) // prefetched loads never reach the service
	missing := func(i, s int) bool { return i == 3 || i == 2 && s == 1 }
	msg := testBatch(t, 6, testSelectors, missing)
	_, evs, err := ds.decodeWorkBatch(encodeBatch(t, msg), testSelectors)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 6 {
		t.Fatalf("%d events, want 6", len(evs))
	}
	for i := range evs {
		ev := &evs[i]
		if ev.Number() != uint64(i) {
			t.Fatalf("event %d has number %d", i, ev.Number())
		}
		want := 0
		for s := range testSelectors {
			if !missing(i, s) {
				want++
			}
		}
		if len(ev.prefetched) != want {
			t.Fatalf("event %d has %d prefetched products, want %d", i, len(ev.prefetched), want)
		}
		for _, e := range ev.prefetched {
			if e.EventIdx != uint32(i) {
				t.Fatalf("event %d holds an entry of event %d", i, e.EventIdx)
			}
			var ps []particle
			if err := ev.Load(context.Background(), testSelectors[e.Sel].Label, &ps); err != nil {
				t.Fatal(err)
			}
			if len(ps) != 1 || ps[0].X != float32(i) || ps[0].Y != float32(e.Sel) {
				t.Fatalf("event %d selector %d loaded %+v", i, e.Sel, ps)
			}
		}
	}

	corrupt := map[string]func(*pepWorkMsg){
		"swapped":        func(m *pepWorkMsg) { m.Pref[0], m.Pref[1] = m.Pref[1], m.Pref[0] },
		"duplicate":      func(m *pepWorkMsg) { m.Pref[1] = m.Pref[0] },
		"event past end": func(m *pepWorkMsg) { m.Pref[len(m.Pref)-1].EventIdx = uint32(len(m.Keys)) },
		"unknown sel":    func(m *pepWorkMsg) { m.Pref[0].Sel = uint32(len(testSelectors)) },
		"earlier event":  func(m *pepWorkMsg) { m.Pref[len(m.Pref)-1].EventIdx = 0 },
	}
	for name, mutate := range corrupt {
		m := testBatch(t, 6, testSelectors, nil)
		mutate(&m)
		if _, evs, err := ds.decodeWorkBatch(encodeBatch(t, m), testSelectors); !errors.Is(err, serde.ErrCorrupt) || evs != nil {
			t.Errorf("%s: err = %v with %d events, want a corrupt batch", name, err, len(evs))
		}
	}
}

// TestPEPWorkerAsksForDoneAfterCorruptBatch runs a worker against a fake
// reader rank that answers its first request with garbage and its second
// with Done. The worker must report the corrupt batch and still ask for
// the Done: a reader's server loop ends only once every rank has had one.
func TestPEPWorkerAsksForDoneAfterCorruptBatch(t *testing.T) {
	ds := new(DataStore)
	done := encodeBatch(t, pepWorkMsg{Done: true})
	var workerErr error
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		mpi.NewWorld(2).Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				for _, reply := range [][]byte{{0xff, 0xff}, done} {
					_, src := c.Recv(mpi.AnySource, tagPEPWorkReq)
					c.Send(src, tagPEPWorkResp, reply)
				}
				return
			}
			_, workerErr = ds.pepWorker(context.Background(), c, PEPOptions{Readers: 1}, func(*Event) error { return nil })
		})
	}()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("the fake reader never got the request for its Done")
	}
	if !errors.Is(workerErr, serde.ErrCorrupt) {
		t.Fatalf("worker err = %v, want the corrupt batch", workerErr)
	}
}

// FuzzPEPWorkMsg runs the worker's decode of a work batch on untrusted
// bytes: the borrowed decode, the per-event partition, then the Done
// frame's error. It must never panic. A batch is accepted exactly when its
// entries are in place, and then every event holds only its own entries.
func FuzzPEPWorkMsg(f *testing.F) {
	full := encodeBatch(f, testBatch(f, 4, testSelectors, func(i, s int) bool { return i == 1 && s == 0 }))
	swapped := testBatch(f, 3, testSelectors, nil)
	swapped.Pref[2], swapped.Pref[3] = swapped.Pref[3], swapped.Pref[2]
	past := testBatch(f, 2, testSelectors[:1], nil)
	past.Pref[1].EventIdx = 2
	for _, seed := range [][]byte{
		full,
		encodeBatch(f, pepWorkMsg{Keys: [][]byte{[]byte("short")}, Degraded: 1, Failover: 2}),
		encodeBatch(f, pepWorkMsg{Done: true, Err: xerr.AppendWire(nil, ErrViewChanged)}),
		encodeBatch(f, pepWorkMsg{Done: true, Err: []byte{0x01}}),
		encodeBatch(f, swapped),
		encodeBatch(f, past),
		full[:len(full)/2],
	} {
		f.Add(seed)
	}
	ds := new(DataStore)
	f.Fuzz(func(t *testing.T, data []byte) {
		var plain pepWorkMsg
		if serde.Unmarshal(data, &plain) != nil {
			return
		}
		msg, evs, err := ds.decodeWorkBatch(data, testSelectors)
		if len(msg.Err) > 0 {
			_ = xerr.ParseWire(msg.Err)
		}
		if msg.Done {
			return
		}
		inPlace := true
		for i, e := range plain.Pref {
			if int(e.EventIdx) >= len(plain.Keys) || int(e.Sel) >= len(testSelectors) ||
				i > 0 && (e.EventIdx < plain.Pref[i-1].EventIdx || e.EventIdx == plain.Pref[i-1].EventIdx && e.Sel <= plain.Pref[i-1].Sel) {
				inPlace = false
			}
		}
		if !inPlace {
			if !errors.Is(err, serde.ErrCorrupt) || evs != nil {
				t.Fatalf("entries out of place accepted: err=%v, %d events", err, len(evs))
			}
			return
		}
		if err != nil {
			t.Fatalf("batch with entries in place rejected: %v", err)
		}
		for _, ev := range evs {
			for _, e := range ev.prefetched {
				if e.EventIdx != ev.prefetched[0].EventIdx || !bytes.Equal(plain.Keys[e.EventIdx], ev.key.Bytes()) {
					t.Fatalf("entry of event %d attached to %s", e.EventIdx, ev.key)
				}
			}
		}
	})
}

// budgetPEPBatch locks the worker-side cost of one 64-event batch with one
// selector: borrowed decode, partition and Event handles. Measured 68: the
// decoded message, its Keys and Pref arrays, the batch's Event array and
// one copy per event key. The nested-map version this replaced measured
// 462 (a copying decode, one inner map per event, a handle per event).
const budgetPEPBatch = 72

func TestAllocBudgetPEPBatch(t *testing.T) {
	sel := testSelectors[:1]
	payload := encodeBatch(t, testBatch(t, 64, sel, nil))
	ds := new(DataStore)
	got := testing.AllocsPerRun(100, func() {
		if _, evs, err := ds.decodeWorkBatch(payload, sel); err != nil || len(evs) != 64 {
			t.Fatalf("decode: %d events, %v", len(evs), err)
		}
	})
	t.Logf("64-event batch: %.1f allocs/op (budget %d)", got, budgetPEPBatch)
	if got > budgetPEPBatch {
		t.Errorf("64-event batch allocs/op = %.1f, budget %d", got, budgetPEPBatch)
	}
}
