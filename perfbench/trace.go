package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Wall times are ns since the run started;
// virtual times are the store's simulated ns, or -1 where no clock exists.
type span struct {
	name         string
	id, parent   uint64 // parent 0 marks a root
	req          uint64 // shared by every span of one request
	wall0, wall1 int64
	virt0, virt1 int64
}

// spanLog is one goroutine's in-memory span buffer; a nil *spanLog
// records nothing, so untraced code pays one pointer test per span.
type spanLog struct {
	base  time.Time
	owner uint64 // high bits of every id this log hands out
	next  uint64
	spans []span
}

// tracer owns the span logs of one run and writes them out at the end.
type tracer struct {
	base time.Time
	logs []*spanLog
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// log returns a fresh span buffer for one goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{base: t.base, owner: uint64(len(t.logs)+1) << 40}
	t.logs = append(t.logs, l)
	return l
}

// newID returns an id for a span or request (0 when not tracing).
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.owner | l.next
}

func (l *spanLog) since(t time.Time) int64 { return t.Sub(l.base).Nanoseconds() }

// add records one finished span under an id from newID.
func (l *spanLog) add(id uint64, name string, parent, req uint64, w0, w1 time.Time, v0, v1 int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, req: req,
		wall0: l.since(w0), wall1: l.since(w1), virt0: v0, virt1: v1})
}

// selfTimes returns, per span name, the number of spans and the sum of
// their self wall time: duration minus the part covered by children.
func (t *tracer) selfTimes() map[string][2]float64 {
	var all []span
	for _, l := range t.logs {
		all = append(all, l.spans...)
	}
	children := map[uint64][]span{}
	for _, s := range all {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string][2]float64{}
	for _, s := range all {
		self := s.wall1 - s.wall0 - covered(s, children[s.id])
		acc := out[s.name]
		acc[0]++
		acc[1] += float64(self)
		out[s.name] = acc
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].wall0 < kids[j].wall0 })
	var total, end int64 = 0, p.wall0
	for _, k := range kids {
		a, b := max(k.wall0, end), min(k.wall1, p.wall1)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// write saves every span as one tab-separated line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\treq\twall_start_ns\twall_end_ns\tvirt_start_ns\tvirt_end_ns")
	for _, l := range t.logs {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req, s.wall0, s.wall1, s.virt0, s.virt1)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
