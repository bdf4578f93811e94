// Lightweight span tracing.
//
// Tracing is opt-in per call tree: WithTrace(ctx, name) plants a root
// span in the context; StartSpan then records nested timed spans.
// Without WithTrace, StartSpan returns a nil *Span and the unchanged
// context — every Span method is nil-safe, so instrumented code pays one
// context lookup and nothing else when tracing is off.
//
// Span names follow `<subsystem>/<detail>` (DESIGN §8), e.g.
// "pipeline/run", "stage/assign/dense", "http/v1/synth". Attributes carry
// bounded diagnostic detail: budget settings, degradation reasons,
// ladder rungs.
package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

type spanCtxKey struct{}

// Span is one timed node of a trace tree.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Label
	children []*Span
}

// WithTrace enables tracing on ctx and returns the derived context plus
// the root span. The caller owns the root: call End before rendering.
func WithTrace(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// StartSpan opens a child span under the context's current span. When
// the context carries no trace (WithTrace was never called), it returns
// ctx unchanged and a nil span whose methods are all no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// End closes the span. Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr records a key=value attribute. Nil-safe. Setting an existing
// key overwrites it.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// SetAttrf is SetAttr with fmt.Sprintf formatting of the value.
func (s *Span) SetAttrf(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf(format, args...))
}

// Name returns the span's name ("" for nil spans).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns end−start for ended spans, time-since-start for live
// ones, and 0 for nil spans.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's attributes, sorted by key.
func (s *Span) Attrs() []Label {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := cloneLabels(s.attrs)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Children returns a copy of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Render writes the span tree as an indented listing:
//
//	pipeline/run                                12.8ms method=rank
//	  stage/assign/dense                         1.9ms
//	  stage/synth/resyn                          3.1ms reason=budget
//	  stage/synth/sop                            6.4ms
//
// Durations are formatted with time.Duration rounding to keep lines
// readable; attributes print in sorted-key order. Nil-safe.
func (s *Span) Render(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.render(w, 0)
}

func (s *Span) render(w io.Writer, depth int) error {
	indent := strings.Repeat("  ", depth)
	name := indent + s.Name()
	pad := 44 - len(name)
	if pad < 1 {
		pad = 1
	}
	line := fmt.Sprintf("%s%s%10s", name, strings.Repeat(" ", pad),
		s.Duration().Round(10*time.Microsecond))
	for _, a := range s.Attrs() {
		line += " " + a.Key + "=" + a.Value
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := c.render(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}
