package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the index of the
// enclosing span (-1 for an operation's root).
type span struct {
	Name   string
	Op     int
	Parent int
	Lane   int // Chrome trace thread: the worker that ran the call
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span; the zero value (from a nil recorder) is inert.
type spanRef struct {
	r *recorder
	i int
}

// start opens a span named name under parent (the zero spanRef for an
// operation's root span).
func (r *recorder) start(name string, parent spanRef, op, lane int) spanRef {
	return r.startAt(name, parent, op, lane, time.Now())
}

// startAt is start with an explicit start time.
func (r *recorder) startAt(name string, parent spanRef, op, lane int, at time.Time) spanRef {
	if r == nil {
		return spanRef{}
	}
	now := at.Sub(r.epoch)
	p := -1
	if parent.r != nil {
		p = parent.i
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: p, Lane: lane, Start: now, End: -1})
	return spanRef{r: r, i: len(r.spans) - 1}
}

// end closes the span, attaching key/value pairs.
func (s spanRef) end(kv ...any) {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.epoch)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	sp := &s.r.spans[s.i]
	sp.End = now
	if len(kv) > 0 {
		sp.Args = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			sp.Args[kv[i].(string)] = kv[i+1]
		}
	}
}

// addDone records a finished span with explicit times.
func (r *recorder) addDone(name string, parent spanRef, op, lane int, start, end time.Time, args map[string]any) {
	sp := r.startAt(name, parent, op, lane, start)
	if sp.r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[sp.i].End = end.Sub(r.epoch)
	r.spans[sp.i].Args = args
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// interval is a closed time range.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to within.
func covered(ivs []interval, within interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < within.lo {
			iv.lo = within.lo
		}
		if iv.hi > within.hi {
			iv.hi = within.hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// layerSummary is the per-name aggregate of a span set.
type layerSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize aggregates spans by name. Self time is a span's duration minus
// the part of it its children cover.
func summarize(spans []span) map[string]*layerSummary {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]*layerSummary)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ls := out[s.Name]
		if ls == nil {
			ls = &layerSummary{}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		self := d - covered(children[i], interval{s.Start, s.End})
		ls.Count++
		ls.TotalMs += ms(d)
		ls.SelfMs += ms(self)
	}
	return out
}

// rootCoverage returns, over the root spans named name, their total wall
// time and the part of it covered by their direct children (the top-level
// layer spans).
func rootCoverage(spans []span, name string) (wall, cov time.Duration) {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i, s := range spans {
		if s.Parent != -1 || s.Name != name || s.End < 0 {
			continue
		}
		iv := interval{s.Start, s.End}
		wall += s.End - s.Start
		cov += covered(children[i], iv)
	}
	return wall, cov
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON file.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		args := map[string]any{"op": s.Op, "id": i, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
