package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNoopWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "stage/assign")
	if s != nil {
		t.Fatal("StartSpan without WithTrace must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("context must be unchanged when tracing is off")
	}
	// Every method must be nil-safe.
	s.End()
	s.SetAttr("k", "v")
	s.SetAttrf("k", "%d", 1)
	if s.Name() != "" || s.Duration() != 0 || s.Attrs() != nil || s.Children() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	if err := s.Render(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("no span expected in a bare context")
	}
}

func TestSpanTreeNesting(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "pipeline/run")
	aCtx, a := StartSpan(ctx, "stage/synth/resyn")
	_, a1 := StartSpan(aCtx, "stage/synth/resyn/refactor")
	a1.End()
	a.SetAttr("reason", "budget")
	a.End()
	_, b := StartSpan(ctx, "stage/synth/sop")
	b.End()
	root.SetAttr("method", "rank")
	root.End()

	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("root children = %d, want 2", len(kids))
	}
	if kids[0].Name() != "stage/synth/resyn" || kids[1].Name() != "stage/synth/sop" {
		t.Fatalf("children order wrong: %q, %q", kids[0].Name(), kids[1].Name())
	}
	grand := kids[0].Children()
	if len(grand) != 1 || grand[0].Name() != "stage/synth/resyn/refactor" {
		t.Fatalf("grandchildren wrong: %+v", grand)
	}
	if len(kids[1].Children()) != 0 {
		t.Fatal("sop rung must have no children")
	}
	attrs := kids[0].Attrs()
	if len(attrs) != 1 || attrs[0] != L("reason", "budget") {
		t.Fatalf("attrs = %+v", attrs)
	}
}

func TestSpanDurationsAndIdempotentEnd(t *testing.T) {
	_, s := WithTrace(context.Background(), "x")
	time.Sleep(2 * time.Millisecond)
	s.End()
	d := s.Duration()
	if d < time.Millisecond {
		t.Fatalf("duration %v too small", d)
	}
	time.Sleep(2 * time.Millisecond)
	s.End() // must not move the end time
	if got := s.Duration(); got != d {
		t.Fatalf("End not idempotent: %v != %v", got, d)
	}
}

func TestSpanSetAttrOverwrites(t *testing.T) {
	_, s := WithTrace(context.Background(), "x")
	s.SetAttr("k", "1")
	s.SetAttrf("k", "%d", 2)
	s.SetAttr("a", "z")
	attrs := s.Attrs()
	if len(attrs) != 2 || attrs[0] != L("a", "z") || attrs[1] != L("k", "2") {
		t.Fatalf("attrs = %+v", attrs)
	}
}

func TestSpanRender(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "pipeline/run")
	c1Ctx, c1 := StartSpan(ctx, "stage/synth/resyn")
	_, g := StartSpan(c1Ctx, "stage/synth/resyn/refactor")
	g.End()
	c1.SetAttr("reason", "panic")
	c1.End()
	root.End()

	var buf bytes.Buffer
	if err := root.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "pipeline/run") {
		t.Fatalf("line 0: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  stage/synth/resyn") || !strings.Contains(lines[1], "reason=panic") {
		t.Fatalf("line 1: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    stage/synth/resyn/refactor") {
		t.Fatalf("line 2: %q", lines[2])
	}
}

// TestSpanConcurrentChildren hammers one parent from many goroutines;
// run under -race this verifies the span tree is safe for concurrent
// instrumentation (e.g. parallel batch items sharing a request span).
func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := WithTrace(context.Background(), "root")
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := StartSpan(ctx, "child")
			s.SetAttr("k", "v")
			s.End()
			_ = root.Duration() // concurrent reader
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != n {
		t.Fatalf("children = %d, want %d", got, n)
	}
}
