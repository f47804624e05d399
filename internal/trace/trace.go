// Package trace implements a lightweight context-propagated span tree
// for per-request pipeline attribution.
//
// A request handler installs a collecting root span with NewRoot; every
// pipeline stage below it calls Start to open a child span, annotates it
// with Set, and closes it with End. The finished tree is exported as a
// JSON-friendly SpanNode via Snapshot, and every ended span is also
// reported to the root's Observer (if any) so aggregate per-stage
// histograms can be fed without walking trees.
//
// When no root span is installed in the context, Start returns a nil
// *Span and the unchanged context. All Span methods are safe to call on
// a nil receiver and do nothing, so instrumented code pays only a single
// context value lookup per stage on the disabled path (benchmarked in
// trace_test.go; see BenchmarkStartDisabled).
package trace

import (
	"context"
	"sync"
	"time"
)

// Observer receives the name and wall-clock duration of every span ended
// under a root, including the root itself. Observers must be safe for
// concurrent use: sibling spans may end from different goroutines.
type Observer func(stage string, d time.Duration)

// Span is one timed node in a request's trace tree. Spans are created by
// NewRoot and Start and finished by End. A nil *Span is a valid no-op.
type Span struct {
	name  string
	start time.Time
	obs   Observer // inherited from the root; may be nil

	mu       sync.Mutex
	ended    bool
	dur      time.Duration
	attrs    []attr
	children []*Span
}

type attr struct {
	key string
	val any
}

type ctxKey struct{}

// NewRoot creates a collecting root span named name and returns a
// derived context carrying it. Spans started from the returned context
// become descendants of the root. obs, if non-nil, is invoked for every
// span (root included) when it ends.
func NewRoot(ctx context.Context, name string, obs Observer) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now(), obs: obs}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Start opens a child span under the span carried by ctx. When ctx
// carries no span (tracing disabled) it returns ctx unchanged and a nil
// span; the caller can use both return values unconditionally.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := Current(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), obs: parent.obs}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Active reports whether ctx carries a span, i.e. whether Start would
// record anything. Instrumented code that otherwise reports stage
// timings directly to an observer can use this to avoid double counting
// when a trace is collecting.
func Active(ctx context.Context) bool {
	return Current(ctx) != nil
}

// Current returns the innermost span carried by ctx, or nil when tracing
// is disabled, so code below a stage can annotate the stage's span.
func Current(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Set attaches a key/value attribute to the span. Later writes with the
// same key override earlier ones in the snapshot. Values must be
// JSON-encodable (strings, bools, numbers). No-op on a nil span.
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key, val})
	s.mu.Unlock()
}

// End records the span's duration and reports it to the root observer.
// Only the first End takes effect; End on a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	if s.obs != nil {
		s.obs(s.name, d)
	}
}

// Duration returns the span's recorded duration, or the elapsed time so
// far if the span has not ended. Zero on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanNode is the JSON export of a span subtree. Start offsets are
// milliseconds relative to the snapshot root so clients can render a
// flame view without absolute clocks.
type SpanNode struct {
	Name       string         `json:"name"`
	StartMs    float64        `json:"start_ms"`
	DurationMs float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanNode    `json:"children,omitempty"`
}

// Snapshot exports the span and its descendants. It may be called on a
// live tree (unended spans report elapsed-so-far); nil on a nil span.
func (s *Span) Snapshot() *SpanNode {
	if s == nil {
		return nil
	}
	return s.snapshot(s.start)
}

func (s *Span) snapshot(base time.Time) *SpanNode {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.val
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()

	n := &SpanNode{
		Name:       s.name,
		StartMs:    float64(s.start.Sub(base)) / float64(time.Millisecond),
		DurationMs: float64(dur) / float64(time.Millisecond),
		Attrs:      attrs,
	}
	for _, c := range children {
		n.Children = append(n.Children, c.snapshot(base))
	}
	return n
}

// Find returns the first node named name in a pre-order walk of the
// subtree rooted at n, or nil. Nil-safe.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits every node of the subtree in pre-order. Nil-safe.
func (n *SpanNode) Walk(fn func(*SpanNode)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Attr returns the attribute value for key on n, and whether it is set.
func (n *SpanNode) Attr(key string) (any, bool) {
	if n == nil || n.Attrs == nil {
		return nil, false
	}
	v, ok := n.Attrs[key]
	return v, ok
}
