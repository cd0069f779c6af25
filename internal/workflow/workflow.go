// Package workflow implements the HEPnOS-based candidate-selection
// application of §IV-B: an MPI program in which each rank uses the
// ParallelEventProcessor to fetch events, deserializes the NOvA slice
// product, runs the CAFAna-style selection, and reduces the accepted slice
// IDs to rank 0, which writes them out. Its results are bit-comparable
// with package filebased — the paper's correctness criterion.
package workflow

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/mpi"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
)

// Config tunes the HEPnOS-based selection run.
type Config struct {
	// Dataset is the dataset path holding the ingested events.
	Dataset string
	// Label is the product label the loader stored slices under.
	Label string
	// Ranks is the MPI world size.
	Ranks int
	// PEP carries the ParallelEventProcessor tuning (batch sizes,
	// readers). Prefetch for the slice product is added automatically.
	PEP core.PEPOptions
	// NoPrefetch disables product prefetching (ablation knob).
	NoPrefetch bool
	// OutFile, when set, receives the accepted IDs (written by rank 0
	// after the reduction, as in the paper).
	OutFile string
	// TimelineDir, when set, receives one timing file per rank ("we write
	// these timestamps to a separate file for each rank", §IV-B); the
	// files are analyzed offline to reconstruct the run.
	TimelineDir string
	// SliceWork emulates per-slice analysis compute (the paper's KNL
	// cores spend ~0.3 ms/slice; a laptop's selection alone is ~1 µs).
	// Zero adds nothing.
	SliceWork time.Duration
}

// Result is the workflow outcome, mirroring filebased.Result where
// meaningful.
type Result struct {
	Selected    []nova.SliceRef
	TotalEvents int64
	TotalSlices int
	Makespan    float64
	Throughput  float64 // slices per second over the makespan
	Stats       core.PEPStats
}

// Run executes the selection over an in-process MPI world.
func Run(ctx context.Context, ds *core.DataStore, cfg Config) (Result, error) {
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.Label == "" {
		cfg.Label = "slices"
	}
	dataset, err := ds.OpenDataSet(ctx, cfg.Dataset)
	if err != nil {
		return Result{}, err
	}
	opts := cfg.PEP
	if !cfg.NoPrefetch {
		opts.Prefetch = append(opts.Prefetch, core.SelectorFor(cfg.Label, []nova.Slice{}))
	}

	var (
		mu       sync.Mutex
		result   Result
		firstErr error
	)
	mpi.NewWorld(cfg.Ranks).Run(func(c *mpi.Comm) {
		var local []nova.SliceRef
		localSlices := 0
		// One decode target per rank: SelectEvent copies what it accepts
		// into SliceRefs, so nothing holds the previous event's slices.
		var slices []nova.Slice
		stats, err := ds.ProcessEvents(ctx, c, dataset, opts, func(ev *core.Event) error {
			slices = slices[:0]
			if err := ev.Load(ctx, cfg.Label, &slices); err != nil {
				return err
			}
			id := ev.ID()
			nev := nova.Event{Run: id.Run, SubRun: id.SubRun, Event: id.Event, Slices: slices}
			local = append(local, nova.SelectEvent(&nev)...)
			localSlices += len(slices)
			if cfg.SliceWork > 0 {
				time.Sleep(time.Duration(len(slices)) * cfg.SliceWork)
			}
			return nil
		})

		// Reduce the accepted IDs to rank 0 (an MPI gather of serialized
		// ref lists plays the paper's reduction).
		payload, merr := serde.Marshal(local)
		if merr != nil && err == nil {
			err = merr
		}
		parts := c.Gather(0, payload)
		totalSlices := c.ReduceInt64(0, int64(localSlices), mpi.OpSum)

		if cfg.TimelineDir != "" {
			if werr := writeRankTimeline(cfg.TimelineDir, c.Rank(), stats, localSlices, len(local)); werr != nil && err == nil {
				err = werr
			}
		}

		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		if c.Rank() == 0 {
			for _, p := range parts {
				var refs []nova.SliceRef
				if derr := serde.Unmarshal(p, &refs); derr != nil {
					if firstErr == nil {
						firstErr = derr
					}
					continue
				}
				result.Selected = append(result.Selected, refs...)
			}
			result.Stats = stats
			result.TotalEvents = stats.TotalEvents
			result.TotalSlices = int(totalSlices)
			result.Makespan = stats.Makespan
			if stats.Makespan > 0 {
				result.Throughput = float64(totalSlices) / stats.Makespan
			}
		}
	})
	if firstErr != nil {
		return Result{}, firstErr
	}
	filebased.SortRefs(result.Selected)
	if cfg.OutFile != "" {
		if err := writeRefs(cfg.OutFile, result.Selected); err != nil {
			return result, err
		}
	}
	return result, nil
}

// writeRankTimeline writes one rank's MPI_Wtime-style timestamps and
// counters for offline analysis.
func writeRankTimeline(dir string, rank int, stats core.PEPStats, slices, accepted int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/rank-%04d.txt", dir, rank))
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "rank %d\nstart %f\nend %f\nevents %d\nslices %d\naccepted %d\ndegraded %d\n",
		rank, stats.LocalStart, stats.LocalEnd, stats.LocalEvents, slices, accepted, stats.LocalDegraded)
	return f.Close()
}

// writeRefs writes the accepted IDs, one per line.
func writeRefs(path string, refs []nova.SliceRef) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range refs {
		fmt.Fprintln(w, r)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
