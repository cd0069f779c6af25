// Command benchmark is the repository's benchmark: four paper-shaped
// workloads against the real service deployed in-process, eleven
// end-to-end metrics, and a per-layer table measured from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          every workload, untraced then traced
//	go run ./benchmark -workload scan-lsm       one workload (what the driver runs)
//	go run ./benchmark -aa                      two sets on one build, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// childEnv marks a process started by the harness; the test binary's
// TestMain uses it to act as the benchmark instead of running tests.
const childEnv = "HEPNOS_BENCH_CHILD"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	clients  int
	force    bool
	aa       bool
	outDir   string
	tmpRoot  string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload: ingest-lsm, select-mem, scan-lsm or point-mixed (default: each in a process of its own)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics with the span recorder (default: both, one after the other)")
	fs.Float64Var(&o.scale, "scale", 1, "dataset scale; below 1 (self-tests) the LSM guards are off")
	fs.IntVar(&o.clients, "clients", 2, "client goroutines (closed loops)")
	fs.BoolVar(&o.force, "force", false, "allow more clients than processors")
	fs.BoolVar(&o.aa, "aa", false, "run two sets of runs on this build and compare them")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for reports and traces")
	fs.StringVar(&o.tmpRoot, "tmp", filepath.Join(".bench_build", "tmp"), "parent of the scratch directory (datasets, LSM files)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.clients < 1 || o.seconds <= 0 || o.scale <= 0 {
		return nil, fmt.Errorf("-clients, -seconds and -scale must be positive")
	}
	if o.clients > runtime.NumCPU() && !o.force {
		return nil, fmt.Errorf("%d clients on %d processors would measure the scheduler; -force overrides", o.clients, runtime.NumCPU())
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case o.workload != "":
		return runChild(ctx, o, stdout, stderr)
	case o.aa:
		return runAA(ctx, o, self, stdout, stderr)
	}
	return runAll(ctx, o, self, stdout, stderr)
}

// runChild runs one workload in this process. The last stdout line is the
// driver's result object.
func runChild(ctx context.Context, o *options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, "hepnos-bench-*")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// An interrupt must not leave datasets behind. The servers live in this
	// process and die with it.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// The servers are still writing: a file created under a
			// directory being removed makes the removal fail, so retry.
			for i := 0; i < 10 && os.RemoveAll(tmp) != nil; i++ {
			}
			os.Exit(130)
		case <-done:
		}
	}()

	trace := o.trace
	if trace < 0 {
		trace = 0
	}
	cfg := &runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: trace == 1,
		scale: o.scale, clients: o.clients, tmp: tmp, outDir: o.outDir}
	rep, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	printReport(stderr, rep)
	if err := writeReport(o.outDir, rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(resultLine(rep))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// result is the object the driver reads from the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(rep *report) result {
	r := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for name, v := range rep.Metrics {
		r.Metrics[name] = resultValue{Value: v.Value, Unit: v.Unit}
	}
	return r
}

func reportPath(outDir, workload string, trace bool) string {
	mode := "e2e"
	if trace {
		mode = "layers"
	}
	return filepath.Join(outDir, fmt.Sprintf("report-%s-%s.json", workload, mode))
}

func writeReport(outDir string, rep *report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, rep.Workload, rep.Trace), data, 0o644)
}
