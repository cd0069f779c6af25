package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// aaRuns is the number of runs per workload in either set of -aa, each
// with another seed: what the driver does and the review guide asks for.
const aaRuns = 10

// Every workload runs in a process of its own, so that nothing one
// workload does to the process (serde.RegisterColumnar, metric
// registries, connection pools, heap growth) reaches another.

// runOne re-executes the benchmark for one workload and returns the result
// object from the last line of its standard output.
func runOne(ctx context.Context, self string, o *options, workload string, seed uint64, trace int, childErr io.Writer) (result, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-clients", strconv.Itoa(o.clients),
		"-out", o.outDir, "-tmp", o.tmpRoot,
	}
	if o.force {
		args = append(args, "-force")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	// An interrupt of the parent reaches the child as an interrupt, not a
	// kill: the child removes its scratch directory before it exits.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = childErr
	out, err := cmd.Output()
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, fmt.Errorf("%s (trace %d): no result: %w", workload, trace, err)
	}
	// A child that printed a result but exited non-zero counted failures.
	return res, nil
}

// runAll runs every workload, untraced and then traced, and prints the
// end-to-end metrics side by side. The children print the full reports.
func runAll(ctx context.Context, o *options, self string, stdout, stderr io.Writer) int {
	modes := []int{0, 1}
	if o.trace >= 0 {
		modes = []int{o.trace}
	}
	code := 0
	e2e := map[string]result{}
	for _, w := range workloadNames {
		for _, trace := range modes {
			res, err := runOne(ctx, self, o, w, o.seed, trace, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			if trace == 0 {
				e2e[w] = res
			}
		}
	}
	if len(e2e) > 0 {
		fmt.Fprintf(stdout, "%-18s", "end-to-end")
		for _, w := range workloadNames {
			fmt.Fprintf(stdout, " %14s", w)
		}
		fmt.Fprintln(stdout)
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "%-18s", m.Name+" ("+m.Unit+")")
			for _, w := range workloadNames {
				fmt.Fprintf(stdout, " %14.4g", e2e[w].Metrics[m.Name].Value)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%-18s", "failed/attempted")
		for _, w := range workloadNames {
			fmt.Fprintf(stdout, " %14s", fmt.Sprintf("%d/%d", e2e[w].Failed, e2e[w].Attempted))
		}
		fmt.Fprintln(stdout)
	}
	return code
}

// quartiles are Python's statistics.quantiles(values, n=4), the rule the
// driver applies.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	if len(x) < 2 {
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := len(x) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(x)-1 {
			j = len(x) - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// aaRow is one metric × workload of the A/A comparison.
type aaRow struct {
	metric               string
	a, b                 [3]float64 // q1, median, q3
	spread, worse, bound float64
	status               string
}

// judge compares two sets of runs of one metric the way the driver does:
// the spread (interquartile distance over the median) of either set must
// stay within the bound (set-up time excepted), and the second median may
// not be worse than the first by more than the bound.
func judge(def metricDef, a, b []float64) aaRow {
	r := aaRow{metric: def.Name, bound: def.Bound, status: "ok"}
	r.a[0], r.a[1], r.a[2] = quartiles(a)
	r.b[0], r.b[1], r.b[2] = quartiles(b)
	for _, q := range [][3]float64{r.a, r.b} {
		if s := ratio(q[2]-q[0], q[1]); s > r.spread {
			r.spread = s
		}
	}
	r.worse = ratio(r.b[1]-r.a[1], r.a[1])
	if def.Better == "higher" {
		r.worse = -r.worse
	}
	switch {
	case r.spread > def.Bound && def.Name != "setup_s":
		r.status = "unresolved"
	case r.worse > def.Bound:
		r.status = "differs"
	}
	return r
}

// runAA runs two sets of runs of the same build, the second with the
// workloads in the opposite order, and compares them metric by metric.
func runAA(ctx context.Context, o *options, self string, stdout, stderr io.Writer) int {
	sets := [2]map[string]map[string][]float64{}
	failed := int64(0)
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		order := append([]string(nil), workloadNames...)
		if s == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for i := 0; i < aaRuns; i++ {
			for _, w := range order {
				res, err := runOne(ctx, self, o, w, o.seed+uint64(i), 0, io.Discard)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				failed += res.Failed
				if sets[s][w] == nil {
					sets[s][w] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					sets[s][w][name] = append(sets[s][w][name], v.Value)
				}
				fmt.Fprintf(stderr, "set %c run %d/%d %s: failed %d of %d\n", 'A'+s, i+1, aaRuns, w, res.Failed, res.Attempted)
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "| workload | metric | A median [q1, q3] | B median [q1, q3] | B worse by | spread | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadNames {
		for _, def := range endToEnd {
			r := judge(def, sets[0][w][def.Name], sets[1][w][def.Name])
			if r.status != "ok" {
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				w, r.metric, r.a[1], r.a[0], r.a[2], r.b[1], r.b[0], r.b[2], 100*r.worse, 100*r.spread, 100*r.bound, r.status)
		}
	}
	fmt.Fprintf(stdout, "\n%d runs per workload and set, %g s each; %d failed operations in all\n", aaRuns, o.seconds, failed)
	if failed > 0 {
		code = 1
	}
	return code
}
