package main

import (
	"fmt"
	"io"
	"sort"
)

// printReport writes the human-readable form of a run: the environment,
// every metric by name with its unit and sample count, and, for a traced
// run, the span table with self times and the layer shares of the ladder.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	mode := "end-to-end (tracing off)"
	if rep.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s · %s · seed %d · %g s · scale %g · %d clients\n", rep.Workload, mode, e.Seed, e.Seconds, e.Scale, e.Clients)
	fmt.Fprintf(w, "   nproc %d · GOMAXPROCS %d · %s · commit %s · lsm: memtable %d MiB, block cache %d MiB, SyncWrites=%v · %s on %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitCommit, e.MemtableMB, e.CacheMB, e.SyncWrites, e.TempDir, e.TempDirFS)
	fmt.Fprintf(w, "   input %s · unit %s · []nova.Slice columnar: %v\n", rep.InputHash, rep.Unit, rep.Columnar)
	printValues(w, "metric", rep.Metrics)
	if len(rep.Extra) > 0 {
		printValues(w, "reported, not in BENCHMARK.json", rep.Extra)
	}
	if len(rep.Spans) > 0 {
		fmt.Fprintf(w, "   %-34s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, s := range rep.Spans {
			fmt.Fprintf(w, "   %-34s %9d %12.2f %12.2f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	if len(rep.Ladder) > 0 {
		fmt.Fprintf(w, "   %-6s %-11s %-28s %10s %7s\n", "op", "layer", "rung", "self µs", "share")
		for _, l := range rep.Ladder {
			note := ""
			if l.SelfUs < 0 {
				note = "  non-monotone"
			}
			fmt.Fprintf(w, "   %-6s %-11s %-28s %10.2f %6.1f%%%s\n", l.Op, l.Layer, l.Rung, l.SelfUs, 100*l.Share, note)
		}
	}
	fmt.Fprintf(w, "   attempted %d · failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

func printValues(w io.Writer, title string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-40s %16s %-6s %s\n", title, "value", "unit", "samples")
	for _, n := range names {
		v := vals[n]
		fmt.Fprintf(w, "   %-40s %16.4f %-6s %d\n", n, v.Value, v.Unit, v.N)
	}
}
