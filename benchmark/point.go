package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

const (
	pointLoadShare = 0.8  // the rest are stores
	pointZipfTheta = 0.99 // YCSB's default skew
	pointBlockOps  = 1024 // ops per "pass" of the point loop
	pointWindow    = 250 * time.Millisecond
	readBackEvery  = 64 // every n-th store is read back at the end
)

// failures counts operations attempted and failed and keeps the first few
// messages for the report.
type failures struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string
}

func (f *failures) attempt(n int64) {
	f.mu.Lock()
	f.attempted += n
	f.mu.Unlock()
}

func (f *failures) fail(format string, args ...any) {
	f.mu.Lock()
	f.failed++
	if len(f.first) < 8 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// check counts one attempted operation and fails it when err is set.
func (f *failures) check(err error, what string) bool {
	f.attempt(1)
	if err != nil {
		f.fail("%s: %v", what, err)
		return false
	}
	return true
}

// storedRef is a store to read back after the loop.
type storedRef struct {
	ref   eventRef
	label string
}

// pointStats is what one run of the point loop measured.
type pointStats struct {
	loadUs, storeUs []float64
	blockMs         []float64  // one per pointBlockOps ops of one client
	ivals           []interval // one per pointWindow of the whole loop
	use             usage      // over the loop, the read-backs after it excluded
}

// modalEvents keeps the events with the most common slice count (4 at the
// generator's mean of 4.1), so that every operation of the point loop
// moves the same number of bytes under every seed. With Zipf(0.99) a
// dozen events take a quarter of the operations; their sizes would
// otherwise decide slices per second and tilt the latencies.
func modalEvents(refs []eventRef) []eventRef {
	count := map[int]int{}
	mode := 0
	for _, r := range refs {
		n := len(r.data.Slices)
		if count[n]++; count[n] > count[mode] || (count[n] == count[mode] && n < mode) {
			mode = n
		}
	}
	out := make([]eventRef, 0, count[mode])
	for _, r := range refs {
		if len(r.data.Slices) == mode {
			out = append(out, r)
		}
	}
	return out
}

func sameSlices(a, b []nova.Slice) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pointLoop is the point-mixed workload: `clients` closed loops, each 80 %
// Event.Load of the preloaded product and 20 % Event.Store of the event's
// slices under a fresh label, on Zipf-chosen events. Every Load is checked
// against the generated event; a sample of the Stores is read back before
// returning. tag keeps labels of separate runs on one deployment apart.
func pointLoop(ctx context.Context, svc *service, refs []eventRef, seed uint64, clients int, dur time.Duration,
	rec *recorder, fl *failures, tag string) pointStats {
	refs = modalEvents(refs)
	z := newZipf(len(refs), pointZipfTheta)
	// Rank r of the Zipf draw maps to a seeded permutation of the events,
	// so the hot set is scattered over subruns and databases.
	perm := make([]int, len(refs))
	for i := range perm {
		perm[i] = i
	}
	stats.NewRNG(seed).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

	per := make([]pointStats, clients)
	backs := make([][]storedRef, clients)
	var ops, slices atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	stopMeter := svc.meter()
	t0 := time.Now()

	// The sampler cuts the loop into windows of wall time, ops and CPU.
	var total pointStats
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(pointWindow)
		defer tick.Stop()
		last := interval{cpu: cpuTime()}
		at := t0
		window := func(now time.Time) {
			cur := interval{ops: ops.Load(), slices: slices.Load(), cpu: cpuTime()}
			total.ivals = append(total.ivals, interval{
				events: cur.ops - last.ops, ops: cur.ops - last.ops, slices: cur.slices - last.slices,
				wall: now.Sub(at), cpu: cur.cpu - last.cpu,
			})
			last, at = cur, now
		}
		for {
			select {
			case <-stop:
				// A loop shorter than a window still reports one.
				if len(total.ivals) == 0 {
					window(time.Now())
				}
				return
			case now := <-tick.C:
				window(now)
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := stats.NewRNG(seed ^ uint64(c+1)*0x9e3779b97f4a7c15)
			st := &per[c]
			st.loadUs = make([]float64, 0, 1<<18)
			st.storeUs = make([]float64, 0, 1<<16)
			var got []nova.Slice
			blockStart := time.Now()
			for n := 0; ; n++ {
				ref := refs[perm[z.next(rng)]]
				if rng.Float64() < pointLoadShare {
					got = got[:0]
					sp := rec.start("Event.Load", openSpan{})
					t := time.Now()
					err := ref.ev.Load(ctx, sliceLabel, &got)
					d := time.Since(t)
					sp.end()
					if fl.check(err, "load") && !sameSlices(got, ref.data.Slices) {
						fl.fail("load %s: value differs from the generated event", ref.ev.ID())
					}
					st.loadUs = append(st.loadUs, float64(d)/1e3)
				} else {
					label := fmt.Sprintf("%s-%d-%d", tag, c, n)
					sp := rec.start("Event.Store", openSpan{})
					t := time.Now()
					err := ref.ev.Store(ctx, label, ref.data.Slices)
					d := time.Since(t)
					sp.end()
					if fl.check(err, "store") && len(st.storeUs)%readBackEvery == 0 {
						backs[c] = append(backs[c], storedRef{ref, label})
					}
					st.storeUs = append(st.storeUs, float64(d)/1e3)
				}
				ops.Add(1)
				slices.Add(int64(len(ref.data.Slices)))
				if (n+1)%pointBlockOps == 0 {
					now := time.Now()
					st.blockMs = append(st.blockMs, float64(now.Sub(blockStart))/1e6)
					blockStart = now
					if now.Sub(t0) >= dur {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	total.use = stopMeter()
	close(stop)
	<-sampled
	for c := range per {
		total.loadUs = append(total.loadUs, per[c].loadUs...)
		total.storeUs = append(total.storeUs, per[c].storeUs...)
		total.blockMs = append(total.blockMs, per[c].blockMs...)
	}
	for _, list := range backs {
		for _, b := range list {
			var got []nova.Slice
			err := b.ref.ev.Load(ctx, b.label, &got)
			if fl.check(err, "read back "+b.label) && !sameSlices(got, b.ref.data.Slices) {
				fl.fail("read back %s on %s: value differs from what was stored", b.label, b.ref.ev.ID())
			}
		}
	}
	return total
}
