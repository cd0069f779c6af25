package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// TestMain lets the test binary stand in for the benchmark executable: the
// harness re-executes os.Executable() for every workload and marks those
// children with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestChunkedTailIgnoresABurst(t *testing.T) {
	// Ten quiet chunks whose values run 1..tailChunk, then the same with
	// one chunk ten times slower: the burst moves the percentile of the
	// whole sample, not the median of the chunks' tails.
	var quiet []float64
	for c := 0; c < 10; c++ {
		for i := 1; i <= tailChunk; i++ {
			quiet = append(quiet, float64(i))
		}
	}
	noisy := append([]float64(nil), quiet...)
	for i := 3 * tailChunk; i < 4*tailChunk; i++ {
		noisy[i] *= 10
	}
	want := newDist(append([]float64(nil), quiet[:tailChunk]...)).p(99)
	if got := chunkedTail(quiet, 99); got != want {
		t.Errorf("quiet: chunkedTail = %v, want %v", got, want)
	}
	if got := chunkedTail(noisy, 99); got != want {
		t.Errorf("one slow chunk moved chunkedTail to %v, want %v", got, want)
	}
	if whole := newDist(append([]float64(nil), noisy...)).p(99); whole <= 2*want {
		t.Errorf("the whole-sample percentile %v should have moved well past %v", whole, want)
	}
	if noisy[0] != 1 || noisy[3*tailChunk] != 10 {
		t.Error("chunkedTail reordered its input")
	}
	// Shorter than two chunks: the plain percentile.
	if got, want := chunkedTail([]float64{4, 1, 3, 2}, 50), 2.5; got != want {
		t.Errorf("short sample: chunkedTail = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", ID: 1, Req: 1, Start: 0, End: 100},
		{Name: "call", ID: 2, Parent: 1, Req: 1, Start: 10, End: 30},
		{Name: "call", ID: 3, Parent: 1, Req: 1, Start: 20, End: 50},  // overlaps the first: a second worker
		{Name: "call", ID: 4, Parent: 1, Req: 1, Start: 90, End: 120}, // clipped at the parent's end
		{Name: "leaf", ID: 5, Parent: 2, Req: 1, Start: 12, End: 17},
	}
	got := map[string]spanStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	is := func(ms, ns float64) bool { return math.Abs(ms*1e6-ns) < 1e-6 }
	// pass: 100 long, children cover [10,50] and [90,100] = 50.
	if st := got["pass"]; st.Count != 1 || !is(st.TotalMs, 100) || !is(st.SelfMs, 50) {
		t.Errorf("pass = %+v, want total 100 ns, self 50 ns", st)
	}
	// calls: 20+30+30 long; only the first has a child, 5 long.
	if st := got["call"]; st.Count != 3 || !is(st.TotalMs, 80) || !is(st.SelfMs, 75) {
		t.Errorf("call = %+v, want total 80 ns, self 75 ns", st)
	}
}

func TestRecorderRequests(t *testing.T) {
	rec := newRecorder()
	root := rec.start("root", openSpan{})
	kid := rec.start("kid", root)
	kid.end()
	root.end()
	other := rec.start("root", openSpan{})
	other.end()
	if len(rec.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(rec.spans))
	}
	if k, r := rec.spans[0], rec.spans[1]; k.Parent != r.ID || k.Req != r.Req {
		t.Errorf("child %+v does not belong to root %+v", k, r)
	}
	if rec.spans[2].Req == rec.spans[1].Req {
		t.Errorf("two roots share request id %d", rec.spans[2].Req)
	}
	var off *recorder
	off.start("x", openSpan{}).end() // a nil recorder records nothing and does not panic
}

func TestSampleIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed uint64) *sample {
		s, err := buildSample(nova.GenParams{Seed: seed, MeanEventsPerFile: 300}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := build(7), build(7), build(8)
	if a.events != 2000 || a.hash != b.hash || a.slices != b.slices || a.userBytes != b.userBytes {
		t.Errorf("same seed: %d events, hashes %x / %x", a.events, a.hash, b.hash)
	}
	if !reflect.DeepEqual(a.selected(), b.selected()) || a.scanExpect() != b.scanExpect() {
		t.Errorf("same seed, different oracle")
	}
	if a.hash == c.hash || a.scanExpect() == c.scanExpect() {
		t.Errorf("seeds 7 and 8 generate the same input (hash %x)", a.hash)
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	const n = 1000
	z := newZipf(n, pointZipfTheta)
	rng := stats.NewRNG(42)
	hits := make([]int, n)
	for i := 0; i < 100000; i++ {
		r := z.next(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
		hits[r]++
	}
	if hits[0] < 5*hits[9] || hits[9] < 5*hits[99]/2 {
		t.Errorf("ranks 0, 9, 99 drawn %d, %d, %d times: not a 1/r law", hits[0], hits[9], hits[99])
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	lower := metricDef{Name: "pass_p50_ms", Better: "lower", Bound: 0.10}
	if r := judge(lower, steady, steady); r.status != "ok" {
		t.Errorf("identical sets: %s", r.status)
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if r := judge(lower, steady, wide); r.status != "unresolved" {
		t.Errorf("spread %.2f over bound %.2f: %s", r.spread, lower.Bound, r.status)
	}
	slow := make([]float64, len(steady))
	for i, v := range steady {
		slow[i] = v * 1.2
	}
	if r := judge(lower, steady, slow); r.status != "differs" {
		t.Errorf("20 %% slower: %s", r.status)
	}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	if r := judge(higher, steady, slow); r.status != "ok" {
		t.Errorf("20 %% more throughput: %s", r.status)
	}
	if r := judge(metricDef{Name: "setup_s", Better: "lower", Bound: 0.20}, steady, wide); r.status != "ok" {
		t.Errorf("setup_s is exempt from the spread rule: %s", r.status)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var workloads []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", workloads, workloadNames)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nharness\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness table")
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %q named twice", m.Name)
		}
		seen[m.Name] = true
		setup = setup || m == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) || len(bj.Command) == 0 {
		t.Errorf("run_seconds %d, paths %v, command %v", bj.RunSeconds, bj.Paths, bj.Command)
	}
}

func TestRefusesMoreClientsThanProcessors(t *testing.T) {
	var errOut bytes.Buffer
	if code := run([]string{"-workload", "select-mem", "-clients", "4096"}, io.Discard, &errOut); code != 2 {
		t.Errorf("exit %d, stderr %q; want a refusal", code, errOut.String())
	}
}

// TestWorkloadsRunInProcessesOfTheirOwn runs every workload as the driver
// does, tiny and for a fraction of a second: the result object must carry exactly the
// metrics BENCHMARK.json names, no operation may fail, and only scan-lsm
// may have run with []nova.Slice registered columnar.
func TestWorkloadsRunInProcessesOfTheirOwn(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, tmp := t.TempDir(), t.TempDir()
	o := &options{seed: 3, seconds: 0.3, scale: 0.02, clients: 2, force: true, outDir: out, tmpRoot: tmp}
	modes := []int{0, 1}
	if testing.Short() {
		modes = []int{0}
	}
	for _, w := range workloadNames {
		for _, trace := range modes {
			var childErr bytes.Buffer
			res, err := runOne(context.Background(), self, o, w, o.seed, trace, &childErr)
			if err != nil {
				t.Fatalf("%v\n%s", err, childErr.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, failed %d of %d\n%s", w, trace, res.Correct, res.Failed, res.Attempted, childErr.String())
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or in %q, want %q", w, trace, d.Name, v.Unit, d.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v.Value)
				}
			}
			data, err := os.ReadFile(reportPath(out, w, trace == 1))
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Columnar != (w == "scan-lsm") {
				t.Errorf("%s trace %d ran with []nova.Slice columnar = %v", w, trace, rep.Columnar)
			}
			if rep.Env.Seed != o.seed || rep.Env.NProc < 1 || rep.Env.GoVersion == "" || rep.Env.SyncWrites {
				t.Errorf("%s: environment record %+v", w, rep.Env)
			}
		}
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d scratch directories left behind in %s", len(left), tmp)
	}
}

// TestInterruptedParentLeavesNoScratch interrupts a run of every workload
// (the parent mode: each workload is a child process) while a child holds
// datasets on disk. The interrupt must reach the child as an interrupt, so
// that it removes its scratch directory; a killed child cannot.
func TestInterruptedParentLeavesNoScratch(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, tmp := t.TempDir(), t.TempDir()
	cmd := exec.Command(self, "-seconds", "30", "-scale", "0.02", "-trace", "0", "-force", "-out", out, "-tmp", tmp)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first workload ingests into LSM directories for the whole run:
	// wait until a round's files are there.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lsm, _ := filepath.Glob(filepath.Join(tmp, "hepnos-bench-*", "lsm-*"))
		if len(lsm) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no scratch directory appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Errorf("an interrupted run exited with code 0")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d scratch directories left behind in %s after an interrupt", len(left), tmp)
	}
}
