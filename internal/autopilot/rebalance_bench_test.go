package autopilot

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
)

// BenchmarkRebalance measures what a live topology change costs the
// foreground: interactive read latency is sampled while a grow (+1 server)
// and a drain (back to the original size) run the full plan → copy →
// verify → commit → retire machine, and compared against the same reads on
// a quiet cluster. It reports these custom metrics:
//
//	p99_base_us  – read p99 with no migration running
//	p99_mig_us   – read p99 while a migration is copying/verifying
//	overhead_x   – p99_mig_us / p99_base_us (the acceptance bound is 2x)
//	keys_copied  – keys landed on target databases per grow+drain cycle
//
// Each iteration is one grow+drain round trip, so the topology is restored
// for the next; -benchtime 1x in CI gives one full cycle.
func BenchmarkRebalance(b *testing.B) {
	ds, d, spec := newAutopilotCluster(b, bedrock.DeploySpec{Servers: 2})
	ctx := context.Background()
	cluster := NewCluster(spec, d, ds)
	cluster.Mig.Policy = fastPolicy()

	const runs, subruns, events = 2, 4, 8
	dset, err := ds.CreateDataSet(ctx, "bench/rebalance")
	if err != nil {
		b.Fatal(err)
	}
	wb := ds.NewWriteBatch()
	for r := 1; r <= runs; r++ {
		run, err := wb.CreateRun(ctx, dset, uint64(r))
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < subruns; s++ {
			sr, err := wb.CreateSubRun(ctx, run, uint64(s))
			if err != nil {
				b.Fatal(err)
			}
			for e := 0; e < events; e++ {
				ev, err := wb.CreateEvent(ctx, sr, uint64(e))
				if err != nil {
					b.Fatal(err)
				}
				p := particle{X: float32(r), Y: float32(s), Z: float32(e)}
				if err := wb.Store(ctx, ev, "parts", []particle{p}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	if err := wb.Flush(ctx); err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	readOne := func() (time.Duration, error) {
		r := 1 + rng.Intn(runs)
		s := rng.Intn(subruns)
		e := rng.Intn(events)
		start := time.Now()
		run, err := dset.Run(ctx, uint64(r))
		if err != nil {
			return 0, err
		}
		sr, err := run.SubRun(ctx, uint64(s))
		if err != nil {
			return 0, err
		}
		ev, err := sr.Event(ctx, uint64(e))
		if err != nil {
			return 0, err
		}
		var ps []particle
		if err := ev.Load(ctx, "parts", &ps); err != nil {
			return 0, err
		}
		el := time.Since(start)
		if len(ps) != 1 {
			return 0, fmt.Errorf("event %d/%d/%d returned %d rows", r, s, e, len(ps))
		}
		return el, nil
	}

	// Baseline: the same reads on a quiet cluster.
	base := make([]time.Duration, 0, 400)
	for i := 0; i < 400; i++ {
		el, err := readOne()
		if err != nil {
			b.Fatal(err)
		}
		base = append(base, el)
	}

	var during []time.Duration
	var keysCopied int64
	// readThrough hammers reads until done closes, collecting latencies.
	readThrough := func(done <-chan error) error {
		for {
			select {
			case err := <-done:
				return err
			default:
			}
			el, err := readOne()
			if err != nil {
				return err
			}
			during = append(during, el)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 1)
		go func() { done <- cluster.Grow(ctx, 1) }()
		if err := readThrough(done); err != nil {
			b.Fatalf("grow cycle %d: %v", i, err)
		}
		keysCopied += cluster.Mig.Status().KeysCopied
		go func() { done <- cluster.Drain(ctx, 1) }()
		if err := readThrough(done); err != nil {
			b.Fatalf("drain cycle %d: %v", i, err)
		}
		keysCopied += cluster.Mig.Status().KeysCopied
	}
	b.StopTimer()

	p99Base := p99(base)
	p99Mig := p99(during)
	b.ReportMetric(float64(p99Base.Microseconds()), "p99_base_us")
	b.ReportMetric(float64(p99Mig.Microseconds()), "p99_mig_us")
	if p99Base > 0 {
		b.ReportMetric(float64(p99Mig)/float64(p99Base), "overhead_x")
	}
	b.ReportMetric(float64(len(during))/float64(b.N), "reads_during")
	b.ReportMetric(float64(keysCopied)/float64(b.N), "keys_copied")
}

// p99 returns the 99th-percentile of the samples (0 when empty).
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}
