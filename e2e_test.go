package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIEndToEnd builds every command-line tool and drives the full
// multi-process workflow over real TCP: hepnos-server → novagen →
// hdf2hepnos inspect+ingest → hepnos-ls → hepnos-metrics → hepnos-shutdown.
// This is the deployment story from the README, verified.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and spawns processes; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build ./cmd/...: %v", err)
	}
	tool := func(name string) string { return filepath.Join(bin, name) }
	work := t.TempDir()
	groupFile := filepath.Join(work, "group.json")

	// 1. Server in the background.
	server := exec.Command(tool("hepnos-server"),
		"-servers", "2", "-providers", "2", "-event-dbs", "2", "-product-dbs", "2",
		"-group", groupFile)
	server.Dir = work
	serverOut := &strings.Builder{}
	server.Stdout, server.Stderr = serverOut, serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if server.Process != nil {
			server.Process.Signal(syscall.SIGTERM)
			server.Wait()
		}
	}()
	waitFor(t, 10*time.Second, func() bool {
		_, err := os.Stat(groupFile)
		return err == nil
	})

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(tool(name), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// 2. Generate a sample and check the list file.
	dataDir := filepath.Join(work, "nova")
	out := run("novagen", "-out", dataDir, "-files", "4", "-mean-events", "60")
	if !strings.Contains(out, "generated 4 files") {
		t.Fatalf("novagen output: %s", out)
	}
	files, err := filepath.Glob(filepath.Join(dataDir, "*.h5l"))
	if err != nil || len(files) != 4 {
		t.Fatalf("files = %v %v", files, err)
	}

	// 3. Schema inference.
	out = run("hdf2hepnos", "inspect", files[0])
	if !strings.Contains(out, "class NovaSlice") || !strings.Contains(out, "type NovaSlice struct") {
		t.Fatalf("inspect output: %s", out)
	}

	// 4. Parallel ingest over TCP.
	args := append([]string{"ingest", "-group", groupFile, "-dataset", "fermilab/nova", "-j", "3"}, files...)
	out = run("hdf2hepnos", args...)
	if !strings.Contains(out, "ingested 4 files") {
		t.Fatalf("ingest output: %s", out)
	}

	// 5. Walk the hierarchy and scrape the servers' metrics.
	out = run("hepnos-ls", "-group", groupFile)
	if !strings.Contains(out, "fermilab") {
		t.Fatalf("ls output: %s", out)
	}
	out = run("hepnos-ls", "-group", groupFile, "-r", "-max", "2", "fermilab/nova")
	if !strings.Contains(out, "run 1000") || !strings.Contains(out, "vector<Slice>") {
		t.Fatalf("ls -r output: %s", out)
	}
	out = run("hepnos-metrics", "-group", groupFile, "-prom")
	if !promHasSample(out, "hepnos_yokan_db_keys", `db="events_0"`) {
		t.Fatalf("metrics -prom output has no hepnos_yokan_db_keys sample for events_0:\n%s", out)
	}

	// 6. Liveness probe, then remote shutdown.
	out = run("hepnos-shutdown", "-ping", "-group", groupFile)
	if strings.Count(out, "alive") != 2 {
		t.Fatalf("ping output: %s", out)
	}
	out = run("hepnos-shutdown", "-group", groupFile)
	if !strings.Contains(out, "shutdown requested") {
		t.Fatalf("shutdown output: %s", out)
	}
	done := make(chan error, 1)
	go func() { done <- server.Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not exit after remote shutdown; log:\n%s", serverOut)
	}
	if !strings.Contains(serverOut.String(), "remote shutdown requested") {
		t.Fatalf("server log: %s", serverOut)
	}
}

// promHasSample reports whether Prometheus text holds a sample of family
// name whose label set contains label.
func promHasSample(text, name, label string) bool {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+"{"); ok {
			if labels, _, ok := strings.Cut(rest, "}"); ok && strings.Contains(labels, label) {
				return true
			}
		}
	}
	return false
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

// TestTimelineToolOnWorkflowOutput drives hepnos-timeline over files the
// HEPnOS workflow wrote (the §IV-B offline analysis).
func TestTimelineToolOnWorkflowOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/hepnos-timeline")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for r := 0; r < 3; r++ {
		content := fmt.Sprintf("rank %d\nstart %f\nend %f\nevents %d\nslices %d\naccepted %d\n",
			r, 0.1*float64(r), 2.0+0.1*float64(r), 100, 410, r)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("rank-%04d.txt", r)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(filepath.Join(bin, "hepnos-timeline"), dir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"ranks:      3", "throughput:", "utilization:", "accepted:   3"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}
}
