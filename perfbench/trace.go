package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Spans of one request share req; parent is the id of the span
// that caused this one (0 for a root). Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans in memory; they are written out when the run
// ends. A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on     bool
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// start opens a span; pass the result to end.
func (t *tracer) start(name string, req, parent int64) span {
	if !t.on {
		return span{}
	}
	return span{Name: name, Req: req, ID: t.nextID.Add(1), Parent: parent, Start: int64(time.Since(t.t0))}
}

// end closes a span opened by start and records it.
func (t *tracer) end(s span) {
	if !t.on {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record stores a span measured elsewhere (the server middleware), with
// absolute start and end times.
func (t *tracer) record(name string, req, parent int64, start, end time.Time) {
	if !t.on {
		return
	}
	s := span{Name: name, Req: req, ID: t.nextID.Add(1), Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count reports the spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover. Spans that
// start before from are set-up and are left out.
func (t *tracer) selfTime(from time.Time) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	cut := int64(from.Sub(t.t0))
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Start < cut {
			continue
		}
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		out[layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}
