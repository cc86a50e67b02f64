package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary the benchmark calls.
// Spans of one request (a facade call or an HTTP request) share Req;
// Parent links a span to the span that caused it (0 for roots).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pass nil and pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// begin opens a span that ends at the matching end call, so it can be
// the parent of spans recorded in between.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// finish computes every span's self time: its duration minus the
// part of its interval covered by the union of its children.
func (t *tracer) finish() []span {
	kids := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		s := &out[i]
		s.Self = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	m := map[string]float64{}
	for _, s := range spans {
		m[s.Name] += s.Self
	}
	return m
}

// write stores the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return p, f.Close()
}
