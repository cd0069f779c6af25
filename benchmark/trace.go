package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request (a pass, a round, one point operation) share Req.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced phases run the same code.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span under parent (the zero openSpan for a root). A root
// span starts a new request; children inherit their parent's.
func (r *recorder) start(name string, parent openSpan) openSpan {
	if r == nil {
		return openSpan{}
	}
	id := r.nextID.Add(1)
	req := parent.s.Req
	if parent.r == nil {
		req = id
	}
	return openSpan{r: r, s: span{Name: name, ID: id, Parent: parent.s.ID, Req: req, Start: int64(time.Since(r.epoch))}}
}

func (o openSpan) end() {
	if o.r == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// write dumps the spans as a JSON array.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total duration and the self time:
// a span's duration minus the part of its interval its child spans cover
// (children of concurrent workers overlap, so the cover is a union).
func selfTimes(spans []span) []spanStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*spanStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < at {
			lo = at
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}
