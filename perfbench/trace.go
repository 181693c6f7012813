package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one request share Req; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing and costs one branch per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records one span and returns its ID (0 when tracing is off).
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and child time outside the parent's interval does not count).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start // covered up to here
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName collects the self times of every span with the given name.
func selfByName(spans []span, self map[int]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}
