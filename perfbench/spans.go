package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// its name, wall-clock interval relative to the tracer's start, the span
// that caused it (an index into the same lane, -1 for a root) and the
// trace id shared by every span of one device segment or one job.
type span struct {
	name       string
	parent     int32
	traceID    int32
	start, end int64 // ns since tracer start
}

// tracer keeps spans in memory, one lane per benchmark goroutine so the
// hot path never locks, and writes them out when the run ends. A nil
// *lane records nothing, so the untraced passes share the traced code.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

type lane struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span indices
	trace int32   // current trace id
}

func newTracer(lanes int) *tracer {
	t := &tracer{t0: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{t0: t.t0})
	}
	return t
}

// lane returns lane i, or nil on a nil tracer.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// begin opens a span named name under the innermost open span.
func (l *lane) begin(name string) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, parent: parent, traceID: l.trace, start: int64(time.Since(l.t0)), end: -1})
	l.open = append(l.open, int32(len(l.spans)-1))
}

// end closes the innermost open span.
func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.open)
	l.spans[l.open[n-1]].end = int64(time.Since(l.t0))
	l.open = l.open[:n-1]
}

// setTrace starts a new trace id for the spans that follow.
func (l *lane) setTrace(id int32) {
	if l != nil {
		l.trace = id
	}
}

// layerTime is one span name's totals: calls, inclusive and self time.
type layerTime struct {
	calls      int
	total, own time.Duration
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover. Root spans' self time is the wall time the
// benchmark spent outside any named layer call.
func (t *tracer) selfTimes() map[string]*layerTime {
	out := make(map[string]*layerTime)
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.calls++
			lt.total += time.Duration(s.end - s.start)
			lt.own += time.Duration(s.end - s.start - child[i])
		}
	}
	return out
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// writeFile writes every span, one per line: lane, id, parent, trace id,
// name, start and end in nanoseconds since the tracer started, followed
// by one "# self" comment line per span name with its call count, total
// and self time.
func (t *tracer) writeFile(path string, meta string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# lane id parent trace name start_ns end_ns\n", meta)
	for li, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d %d %d %d %s %d %d\n", li, i, s.parent, s.traceID, s.name, s.start, s.end)
		}
	}
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# self %s calls=%d total_ms=%.3f self_ms=%.3f\n", n, st[n].calls,
			float64(st[n].total)/1e6, float64(st[n].own)/1e6)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
