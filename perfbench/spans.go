package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share Op; a root span's Op is its own ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. The zero spanRef is a no-op: ending it records
// nothing and children started under it are roots.
type spanRef struct {
	t      *tracer
	id     uint64
	parent uint64
	op     uint64
	name   string
	start  time.Time
}

// start opens a span under parent (a root when parent is the zero
// spanRef). On a nil tracer it returns the zero spanRef.
func (t *tracer) start(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	op := parent.op
	if op == 0 {
		op = id
	}
	return spanRef{t: t, id: id, parent: parent.id, op: op, name: name, start: time.Now()}
}

// child opens a span under s on s's tracer.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.start(name, s)
}

// end records the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	rec := span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.t.t0).Nanoseconds(), End: time.Since(s.t.t0).Nanoseconds()}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// snapshot returns the recorded spans in start order.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layer is the part of a span name before its first dot: "core.run" is
// in layer "core".
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredBy(s, children[s.ID])
		out[layer(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredBy(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
