package main

import (
	"fmt"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the layers themselves are not instrumented). Spans of the same
// query share its index; Parent is the span that caused this one, -1 for a
// root.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. One goroutine owns a
// recorder.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, query int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Query: query, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.epoch)) }

func (r *recorder) dur(id int) time.Duration {
	return time.Duration(r.spans[id].End - r.spans[id].Start)
}

// selfTimes returns, per span, its duration minus the part its child spans
// cover: the time spent in the span's own layer.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = time.Duration(s.End - s.Start)
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// layerTax is the mean, over identical queries, of the time a boundary
// spends above the boundary below it: outer[i] and inner[i] time the same
// query through the two boundaries.
func layerTax(outer, inner []time.Duration) (time.Duration, error) {
	if len(outer) != len(inner) || len(outer) == 0 {
		return 0, fmt.Errorf("layer tax over %d outer and %d inner samples", len(outer), len(inner))
	}
	var sum time.Duration
	for i := range outer {
		sum += outer[i] - inner[i]
	}
	return sum / time.Duration(len(outer)), nil
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}
