package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"github.com/hep-on-hpc/hepnos-go/internal/filebased"
	"github.com/hep-on-hpc/hepnos-go/internal/nova"
	"github.com/hep-on-hpc/hepnos-go/internal/serde"
	"github.com/hep-on-hpc/hepnos-go/internal/stats"
)

// sample is the seed-determined input of one workload: generated NOvA
// files trimmed to an exact event count, so the work of a pass does not
// depend on the file-size lottery of the seed (only rates would be
// comparable across seeds otherwise, not pass times).
type sample struct {
	files  []*nova.FileData
	events int
	slices int
	// hash is FNV-1a over every event's coordinates and serialized slices,
	// in generation order: the identity of the generated input.
	hash uint64
	// userBytes is the serialized product payload, the denominator of
	// bytes-stored-per-user-byte.
	userBytes int64
}

// buildSample draws files from the generator until it holds exactly
// `events` events, trimming the last file.
func buildSample(params nova.GenParams, events int) (*sample, error) {
	gen := nova.NewGenerator(params)
	s := &sample{}
	h := fnv.New64a()
	var scratch []byte
	var hdr [24]byte
	for i := 0; s.events < events; i++ {
		fd := gen.File(i)
		if rest := events - s.events; len(fd.Events) > rest {
			fd.Events = fd.Events[:rest]
		}
		for e := range fd.Events {
			ev := &fd.Events[e]
			binary.LittleEndian.PutUint64(hdr[0:], ev.Run)
			binary.LittleEndian.PutUint64(hdr[8:], ev.SubRun)
			binary.LittleEndian.PutUint64(hdr[16:], ev.Event)
			h.Write(hdr[:])
			var err error
			if scratch, err = serde.MarshalAppend(scratch[:0], ev.Slices); err != nil {
				return nil, fmt.Errorf("serialize generated event: %w", err)
			}
			h.Write(scratch)
			s.userBytes += int64(len(scratch))
			s.slices += len(ev.Slices)
		}
		s.events += len(fd.Events)
		s.files = append(s.files, fd)
	}
	s.hash = h.Sum64()
	return s, nil
}

// writeFiles writes the sample as .h5l files into dir.
func (s *sample) writeFiles(dir string) ([]string, error) {
	paths := make([]string, len(s.files))
	for i, fd := range s.files {
		paths[i] = filepath.Join(dir, fmt.Sprintf("nova-%05d.h5l", i))
		if err := nova.WriteFile(paths[i], fd); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// selected is the oracle of the candidate selection: the accepted slice
// ids of the generated data, sorted like the workflows sort theirs.
func (s *sample) selected() []nova.SliceRef {
	var out []nova.SliceRef
	for _, fd := range s.files {
		for e := range fd.Events {
			out = append(out, nova.SelectEvent(&fd.Events[e])...)
		}
	}
	filebased.SortRefs(out)
	return out
}

// scanOracle is what a scan with the benchmark predicate must return.
type scanOracle struct {
	matched int
	// sum is an order-independent checksum over (event id, CVNe, CalE) of
	// every matching row.
	sum uint64
}

func scanMatch(s *nova.Slice) bool { return s.CVNe >= 0.5 && s.CalE >= 1.0 && s.CalE <= 4.0 }

func scanRowSum(run, subrun, event uint64, s *nova.Slice) uint64 {
	x := run*0x9e3779b97f4a7c15 ^ subrun*0xbf58476d1ce4e5b9 ^ event*0x94d049bb133111eb
	x ^= uint64(math.Float32bits(s.CVNe))<<32 | uint64(math.Float32bits(s.CalE))
	x ^= x >> 29
	return x * 0xff51afd7ed558ccd
}

// scanExpect filters the generated data client-side.
func (s *sample) scanExpect() scanOracle {
	var o scanOracle
	for _, fd := range s.files {
		for e := range fd.Events {
			ev := &fd.Events[e]
			for i := range ev.Slices {
				if scanMatch(&ev.Slices[i]) {
					o.matched++
					o.sum += scanRowSum(ev.Run, ev.SubRun, ev.Event, &ev.Slices[i])
				}
			}
		}
	}
	return o
}

// zipf draws ranks in [0,n) with P(rank r) ∝ 1/(r+1)^theta, after Gray et
// al. (the YCSB generator); math/rand's Zipf needs an exponent above 1.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		z := 0.0
		for i := 1; i <= n; i++ {
			z += 1 / math.Pow(float64(i), theta)
		}
		return z
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(rng *stats.RNG) int {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= int(z.n) {
		r = int(z.n) - 1
	}
	return r
}
