package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"stef/internal/cpd"
	"stef/internal/tensor"
)

// A span is one call into a layer's public function, recorded by the
// benchmark around the call. Spans of one time-to-fit operation share a
// run id; parent is the id of the span that made the call (0 for the
// operation itself).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// A tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: restarts record from their own goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (tr *tracer) begin(run, parent int, layer, name string) int {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	//lint:allow write-disjoint restarts share the tracer; tr.mu orders the appends
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Run: run, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

func (tr *tracer) end(id int) {
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	//lint:allow write-disjoint restarts share the tracer; tr.mu orders the stores
	tr.spans[id-1].End = now
	tr.mu.Unlock()
}

// record adds a span whose interval the caller timed itself.
func (tr *tracer) record(run, parent int, layer, name string, start, end time.Time) {
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Run: run, Layer: layer, Name: name,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()})
	tr.mu.Unlock()
}

// spansOf returns the spans of one operation.
func (tr *tracer) spansOf(run int) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (children of one span may overlap
// when they run concurrently, so their union is subtracted).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range cs {
			if c.Start > hi {
				covered += hi - lo
				lo, hi = c.Start, c.End
			} else if c.End > hi {
				hi = c.End
			}
		}
		covered += hi - lo
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// formatLayers renders per-layer self times in a fixed order.
func formatLayers(m map[string]time.Duration) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%.3fms", k, float64(m[k])/1e6)
	}
	return strings.Join(parts, " ")
}

// timedEngine wraps a cpd.Engine and records a kernels span for every
// Compute call, named after its update position (= CSF level for the STeF
// engine). Where to record lives in the workspace, so the wrapper stays
// immutable and one instance serves concurrent solves like the engine it
// wraps.
type timedEngine struct {
	inner cpd.Engine
}

// timedWorkspace is the inner engine's workspace plus the tracer, run and
// parent span its Compute calls are recorded under; an unbound workspace
// records nothing.
type timedWorkspace struct {
	inner  cpd.Workspace
	tr     *tracer
	run    int
	parent int
	names  []string
}

func (e timedEngine) Name() string       { return e.inner.Name() }
func (e timedEngine) UpdateOrder() []int { return e.inner.UpdateOrder() }

func (e timedEngine) NewWorkspace() cpd.Workspace {
	d := len(e.inner.UpdateOrder())
	names := make([]string, d)
	for pos := range names {
		names[pos] = fmt.Sprintf("Engine.Compute/l%d", pos)
	}
	return &timedWorkspace{inner: e.inner.NewWorkspace(), names: names}
}

func (e timedEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w := ws.(*timedWorkspace)
	start := time.Now()
	e.inner.Compute(w.inner, pos, factors, out)
	if w.tr != nil {
		w.tr.record(w.run, w.parent, "kernels", w.names[pos], start, time.Now())
	}
}

func (w *timedWorkspace) Reset() { w.inner.Reset() }

// bind attributes the Compute calls of the next solve to a parent span.
func (w *timedWorkspace) bind(tr *tracer, run, parent int) {
	w.tr, w.run, w.parent = tr, run, parent
}
