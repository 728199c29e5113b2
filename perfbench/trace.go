package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer is the benchmark's own span recorder. It times calls into the
// system's layers from outside: every op gets one root span, and the
// layer calls it makes are its children. Spans stay in memory and are
// written out once, when the run ends. A nil or disabled tracer records
// nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   uint64
}

// span is one recorded interval. All spans of one op share Op; Parent
// is the index of the parent span (-1 for the op's root). Counters
// holds counter deltas taken at the span's boundaries.
type span struct {
	Op       uint64           `json:"op"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// spanRef is a handle on an open span; the zero value records nothing.
type spanRef struct {
	t   *tracer
	idx int
	op  uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) open(op uint64, parent int, name string, at time.Time) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: idx, Parent: parent, Name: name, StartNS: int64(at.Sub(t.t0)), EndNS: -1})
	return spanRef{t: t, idx: idx, op: op}
}

// root opens the root span of a new op.
func (t *tracer) root(name string) spanRef {
	if t == nil || !t.on {
		return spanRef{}
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(op, -1, name, time.Now())
}

// child opens a span under s, starting now.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(s.op, s.idx, name, time.Now())
}

// interval records a closed child span over [start, end]: a layer's
// share of a call the benchmark can only time as a whole.
func (s spanRef) interval(name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	c := s.t.open(s.op, s.idx, name, start)
	c.endAt(end, nil)
}

func (s spanRef) end() { s.endAt(time.Now(), nil) }

// endWith closes the span and attaches counter deltas.
func (s spanRef) endWith(counters map[string]int64) { s.endAt(time.Now(), counters) }

func (s spanRef) endAt(at time.Time, counters map[string]int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.EndNS = int64(at.Sub(s.t.t0))
	sp.Counters = counters
	s.t.mu.Unlock()
}

// selfTimes returns each span name's mean self time in microseconds: a
// span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNS := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 && sp.EndNS >= 0 {
			childNS[sp.Parent] += sp.EndNS - sp.StartNS
		}
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for i, sp := range t.spans {
		if sp.EndNS < 0 {
			continue
		}
		self := sp.EndNS - sp.StartNS - childNS[i]
		if self < 0 {
			self = 0
		}
		sum[sp.Name] += float64(self) / 1e3
		n[sp.Name]++
	}
	out := map[string]float64{}
	for name, s := range sum {
		out[name] = s / float64(n[name])
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
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

// finish reports the per-span self times and writes the spans out.
func (t *tracer) finish(r *run) {
	if !t.on {
		return
	}
	self := t.selfTimes()
	for _, name := range spanNames {
		r.set("self_us."+name, self[name])
	}
	// The front-half layers have no child spans: self time is call time.
	r.set("vql.parse_us", self["vql.parse"])
	r.set("physical.compile_us", self["physical.compile"])
	r.set("optimizer.optimize_us", self["optimizer.optimize"])
	path := filepath.Join(r.work, "..", "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := t.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.spans), path)
}
