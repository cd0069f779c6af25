package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/hep-on-hpc/hepnos-go/internal/bedrock"
	"github.com/hep-on-hpc/hepnos-go/internal/core"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/obs"
)

// Storage settings shared by every LSM workload and stated in every
// output. SyncWrites stays false: acknowledged writes reach the OS, not
// the device (see README, sandbox caveats).
const (
	memtableMB   = 1
	blockCacheMB = 1
	datasetPath  = "bench/nova"
	sliceLabel   = "slices"
)

// service is one in-process deployment plus a connected client.
type service struct {
	dep *bedrock.Deployment
	ds  *core.DataStore
	dir string // PathBase of an lsm deployment
	// userBytes is the serialized product payload stored so far, replicas
	// included: the denominator of disk bytes per user byte.
	userBytes int64
}

// shape is what differs between the deployments the harness stands up;
// everything else is fixed: 2 servers × 2 providers × 2 event DBs × 2
// product DBs over tcp.
type shape struct {
	backend string // "map" or "lsm"
	dir     string // PathBase of an lsm deployment
	rf      int
	qos     bool
}

func (sh shape) spec() bedrock.DeploySpec {
	spec := bedrock.DeploySpec{
		Servers:             2,
		Scheme:              "tcp",
		ProvidersPerServer:  2,
		EventDBsPerServer:   2,
		ProductDBsPerServer: 2,
		Backend:             sh.backend,
		PathBase:            sh.dir,
		RF:                  sh.rf,
	}
	if sh.backend == "lsm" {
		spec.Storage = &bedrock.StorageConfig{MemtableMB: memtableMB, BlockCacheMB: blockCacheMB, SyncWrites: false}
	}
	if sh.qos {
		spec.QoS = &bedrock.QoSConfig{Enabled: true}
	}
	return spec
}

func startService(ctx context.Context, sh shape) (*service, error) {
	dep, err := bedrock.Deploy(sh.spec())
	if err != nil {
		return nil, err
	}
	ds, err := core.Connect(ctx, core.ClientConfig{Group: dep.Group})
	if err != nil {
		dep.Shutdown()
		return nil, err
	}
	return &service{dep: dep, ds: ds, dir: sh.dir}, nil
}

// quiesce waits until the LSM directories stop changing: background
// flushes and compactions of the preload would otherwise run into the
// measured phases, for a different share of them on every run.
func (s *service) quiesce(ctx context.Context) error {
	if s.dir == "" {
		return nil
	}
	last, calm := "", 0
	for calm < 3 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
		sig := dirSignature(s.dir)
		if sig == last {
			calm++
		} else {
			last, calm = sig, 0
		}
	}
	return nil
}

// dirSignature changes whenever a file under dir appears, goes or grows.
func dirSignature(dir string) string {
	var b strings.Builder
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			fmt.Fprintf(&b, "%s:%d;", path, info.Size())
		}
		return nil
	})
	return b.String()
}

func (s *service) stop() {
	s.ds.Close()
	s.dep.Shutdown()
}

// eventRef ties a stored event to the generated data it must read back as.
type eventRef struct {
	ev   *core.Event
	data *nova.Event
}

// preload stores the sample into a fresh dataset through an asynchronous
// WriteBatch (the data loader's path without the file decode) and returns
// a handle for every event. as, when set, converts the slices to the
// product value to store.
func preload(ctx context.Context, ds *core.DataStore, s *sample, path string, as func([]nova.Slice) any) (*core.DataSet, []eventRef, error) {
	dataset, err := ds.CreateDataSet(ctx, path)
	if err != nil {
		return nil, nil, err
	}
	wb := ds.NewAsyncWriteBatch(4096)
	refs := make([]eventRef, 0, s.events)
	runs := map[uint64]*core.Run{}
	type srKey struct{ run, sub uint64 }
	subs := map[srKey]*core.SubRun{}
	for _, fd := range s.files {
		run := runs[fd.Run]
		if run == nil {
			if run, err = wb.CreateRun(ctx, dataset, fd.Run); err != nil {
				return nil, nil, err
			}
			runs[fd.Run] = run
		}
		sr := subs[srKey{fd.Run, fd.SubRun}]
		if sr == nil {
			if sr, err = wb.CreateSubRun(ctx, run, fd.SubRun); err != nil {
				return nil, nil, err
			}
			subs[srKey{fd.Run, fd.SubRun}] = sr
		}
		for e := range fd.Events {
			ev, err := wb.CreateEvent(ctx, sr, fd.Events[e].Event)
			if err != nil {
				return nil, nil, err
			}
			var product any = fd.Events[e].Slices
			if as != nil {
				product = as(fd.Events[e].Slices)
			}
			if err := wb.Store(ctx, ev, sliceLabel, product); err != nil {
				return nil, nil, err
			}
			refs = append(refs, eventRef{ev: ev, data: &fd.Events[e]})
		}
	}
	if err := wb.Close(ctx); err != nil {
		return nil, nil, err
	}
	return dataset, refs, nil
}

// counters is one reading of what the deployment counts: the families the
// servers export through bedrock.ScrapeGroup and the client's own
// registry. Keys are
// "family" (summed over servers and labels) and, for families labelled by
// database or pool, "family{db=...}" and "family{pool=...}".
type counters map[string]float64

func (s *service) scrape(ctx context.Context) (counters, error) {
	c := counters{}
	sources, err := bedrock.ScrapeGroup(ctx, s.ds.Margo(), s.dep.Group)
	if err != nil {
		return nil, err
	}
	for _, src := range sources {
		c.add("server:", src.Families)
	}
	c.add("client:", s.ds.Registry().Snapshot())
	if s.dir != "" {
		c["disk:bytes"] = float64(dirBytes(s.dir))
		c["user:bytes"] = float64(s.userBytes)
	}
	return c, nil
}

// usage is what the process and the fabric endpoints counted over a timed
// stretch, read right around it: a scrape costs RPCs and allocations of
// its own, which would otherwise pass for the workload's.
type usage struct {
	rpcs, bytes                 int64 // client calls sent; payload bytes both ways, bulk pulls included
	mallocs, heapBytes, pauseNs uint64
	gcs                         uint32
}

func (u *usage) add(v usage) {
	u.rpcs += v.rpcs
	u.bytes += v.bytes
	u.mallocs += v.mallocs
	u.heapBytes += v.heapBytes
	u.pauseNs += v.pauseNs
	u.gcs += v.gcs
}

// meter starts a usage reading; the function it returns ends it.
func (s *service) meter() func() usage {
	fabric := func() (rpcs, bytes int64) {
		st := s.ds.Margo().Endpoint().Stats()
		bytes = st.BytesSent + st.BytesReceived + st.BulkBytes
		for _, srv := range s.dep.Servers {
			bytes += srv.Margo().Endpoint().Stats().BulkBytes
		}
		return st.CallsSent, bytes
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rpcs0, bytes0 := fabric()
	return func() usage {
		rpcs1, bytes1 := fabric()
		runtime.ReadMemStats(&ms1)
		return usage{
			rpcs: rpcs1 - rpcs0, bytes: bytes1 - bytes0,
			mallocs: ms1.Mallocs - ms0.Mallocs, heapBytes: ms1.TotalAlloc - ms0.TotalAlloc,
			pauseNs: ms1.PauseTotalNs - ms0.PauseTotalNs, gcs: ms1.NumGC - ms0.NumGC,
		}
	}
}

func (c counters) add(side string, fams []obs.Family) {
	for _, f := range fams {
		for _, smp := range f.Samples {
			c[side+f.Name] += smp.Value
			if len(smp.Labels) > 0 {
				c[side+f.Name+labelKey(smp.Labels)] += smp.Value
			}
		}
	}
}

func labelKey(labels map[string]string) string {
	var parts []string
	for _, k := range []string{"db", "pool"} {
		if v, ok := labels[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// minPerProductDB returns the smallest value of a per-database family
// over the product databases.
func (c counters) minPerProductDB(family string) float64 {
	min, seen := 0.0, false
	prefix := "server:" + family + "{db=" + bedrock.RoleProducts + "_"
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && (!seen || v < min) {
			min, seen = v, true
		}
	}
	return min
}

func dirBytes(dir string) int64 {
	var n int64
	// Files vanish under a running compaction; a missing file is not an error.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// plus adds two deltas up.
func (c counters) plus(d counters) counters {
	sum := counters{}
	for k, v := range c {
		sum[k] = v
	}
	for k, v := range d {
		sum[k] += v
	}
	return sum
}

// minus returns the change since an earlier reading.
func (c counters) minus(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}
