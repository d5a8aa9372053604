package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// spanName identifies a layer boundary the traced run records.
type spanName uint8

const (
	spOpQuery spanName = iota
	spOpAdd
	spOpDelete
	spEngineQuery
	spEngineAdd
	spEngineDelete
	spPlanParse
	spKernelMerge
	spKernelSvS
	spKernelHashBin
	spKernelRanGroupScan
	spKernelBitseg
	spCompress
	spSetupNew
	spSetupLoad
	spSetupInstall
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOpQuery: "op.query", spOpAdd: "op.add", spOpDelete: "op.delete",
	spEngineQuery: "engine.query", spEngineAdd: "engine.add", spEngineDelete: "engine.delete",
	spPlanParse:   "plan.parse",
	spKernelMerge: "kernels.merge", spKernelSvS: "kernels.svs", spKernelHashBin: "kernels.hashbin",
	spKernelRanGroupScan: "kernels.rangroupscan", spKernelBitseg: "kernels.bitseg",
	spCompress: "compress.intersect",
	spSetupNew: "setup.new", spSetupLoad: "setup.load", spSetupInstall: "setup.install",
}

// span is one timed interval. Spans live in the buffer of the goroutine
// that recorded them, and a parent is always in the same buffer, so a span's
// identity is its position: parent is the parent's index + 1 (0 for a root).
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        int32 // request id: operation index + 1; 0 for set-up
	name       spanName
}

// tracer keeps every span in memory until the run ends. Buffers are
// created before the goroutines that fill them start.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span log; recording into it takes no lock.
type spanBuf struct {
	t     *tracer
	spans []span
}

// buffer returns a new span log with room for n spans.
func (t *tracer) buffer(n int) *spanBuf {
	b := &spanBuf{t: t, spans: make([]span, 0, n)}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span and returns its handle (index + 1), which is also
// what a child passes as parent. On a nil buffer it records nothing, so
// untraced runs share the traced code path at the cost of a nil check.
func (b *spanBuf) begin(name spanName, parent, req int32) int32 {
	if b == nil {
		return 0
	}
	b.spans = append(b.spans, span{start: int64(time.Since(b.t.epoch)), parent: parent, req: req, name: name})
	return int32(len(b.spans))
}

// end closes the span begin returned and returns its duration in ns.
func (b *spanBuf) end(h int32) int64 {
	if b == nil {
		return 0
	}
	s := &b.spans[h-1]
	s.end = int64(time.Since(b.t.epoch))
	return s.end - s.start
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count  int
	totNs  int64
	selfNs int64 // duration minus the time its children cover
}

func (s spanStat) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.totNs) / float64(s.count)
}

// summarize aggregates every span by name. Children of one parent never
// overlap (a goroutine records them one after another), so a span's self
// time is its duration minus the sum of its children's.
func (t *tracer) summarize() [numSpanNames]spanStat {
	var out [numSpanNames]spanStat
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent > 0 {
				child[s.parent-1] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			st := &out[s.name]
			st.count++
			st.totNs += s.end - s.start
			st.selfNs += s.end - s.start - child[i]
		}
	}
	return out
}

// checkNesting verifies that every span lies inside its parent and shares
// its parent's request id.
func (t *tracer) checkNesting() error {
	for _, b := range t.bufs {
		for i, s := range b.spans {
			if s.end < s.start {
				return fmt.Errorf("span %d (%s) ends before it starts", i, spanNames[s.name])
			}
			if s.parent == 0 {
				continue
			}
			p := b.spans[s.parent-1]
			if s.start < p.start || s.end > p.end || s.req != p.req {
				return fmt.Errorf("span %d (%s) is not inside its parent %s", i, spanNames[s.name], spanNames[p.name])
			}
		}
	}
	return nil
}

// write renders every span as one tab-separated line: id, parent id (0 for
// a root), request id, name, start and end in ns since the run began. A
// span's id is its buffer number in the top bits and its position below.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for bi, b := range t.bufs {
		base := int64(bi+1) << 32
		for i, s := range b.spans {
			parent := int64(0)
			if s.parent > 0 {
				parent = base + int64(s.parent)
			}
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", base+int64(i+1), parent, s.req, spanNames[s.name], s.start, s.end)
		}
	}
	return bw.Flush()
}
