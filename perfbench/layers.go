package main

import (
	"fmt"
	"io"
	"math"
	"sync"

	"fastintersect"
	"fastintersect/internal/compress"
	"fastintersect/internal/core"
	"fastintersect/internal/plan"
)

// kernelAlgos are the kernels the planner can choose for a conjunction of
// preprocessed lists, as the public fastintersect algorithms that run them.
var kernelAlgos = [...]struct {
	name string
	algo fastintersect.Algorithm
	span spanName
}{
	{"merge", fastintersect.Merge, spKernelMerge},
	{"svs", fastintersect.SvS, spKernelSvS},
	{"hashbin", fastintersect.HashBin, spKernelHashBin},
	{"rangroupscan", fastintersect.RanGroupScan, spKernelRanGroupScan},
	{"bitseg", fastintersect.Bitseg, spKernelBitseg},
}

// replayer re-runs sampled queries through the layers below the engine in a
// traced run: plan.Parse + plan.Normalize on the query text, then the
// query's conjunction through every kernel over lists the benchmark
// preprocessed itself, and through compress.IntersectStoredInto over
// NewStoredAdaptive lists. The lists are whole-corpus posting lists, so the
// kernels see the paper's operand sizes rather than per-shard slices.
type replayer struct {
	stride int // a query operation is replayed when its index is a multiple
	lists  map[int]*fastintersect.List
	stored map[int]*compress.Stored
	log    io.Writer

	storedBytes, postings int64 // whole-corpus compressed footprint

	mu  sync.Mutex
	acc replayAcc
}

// replayAcc sums one client's replays; clients merge theirs on release.
type replayAcc struct {
	n, parses      int
	parseNs        int64
	kernelNs       [len(kernelAlgos)]int64
	oracleNs       int64
	compressNs     int64
	elems          int64
	resultRatioSum float64
}

// newReplayer picks about want of ops to replay (every stride-th, queries
// only), preprocesses their conjunction lists and runs each kernel once on
// each replayed conjunction, so lazily built structures exist before
// anything is timed. It also stores every posting list of the corpus with
// compress.NewStoredAdaptive, keeping the replayed terms' lists and summing
// the footprint of all.
func newReplayer(in *inputs, ops []op, want int, log io.Writer) (*replayer, error) {
	rp := &replayer{
		stride: max(1, len(ops)/max(1, want)),
		lists:  map[int]*fastintersect.List{},
		stored: map[int]*compress.Stored{},
		log:    log,
	}
	rc := rp.client()
	defer rc.ctx.Release()
	for i, o := range ops {
		if o.kind != opQuery || !rp.sampled(i) {
			continue
		}
		q := &in.queries[o.q]
		for _, t := range q.and {
			if rp.lists[t] != nil {
				continue
			}
			l, err := fastintersect.Preprocess(in.real.Postings[t])
			if err != nil {
				return nil, fmt.Errorf("preprocess t%d: %w", t, err)
			}
			rp.lists[t] = l
		}
		for _, k := range kernelAlgos {
			if _, err := fastintersect.IntersectInto(rc.ctx, nil, k.algo, rc.operands(q)...); err != nil {
				return nil, fmt.Errorf("warm %s: %w", k.name, err)
			}
		}
	}
	fam := core.NewFamily(fastintersect.OptionsSeed(), compress.StoredHashImages)
	for t, p := range in.real.Postings {
		s, err := compress.NewStoredAdaptive(fam, p)
		if err != nil {
			return nil, fmt.Errorf("store t%d: %w", t, err)
		}
		rp.storedBytes += int64(s.SizeBytes())
		rp.postings += int64(len(p))
		if rp.lists[t] != nil {
			rp.stored[t] = s
		}
	}
	return rp, nil
}

// expected returns about how many replays a client running n operations
// makes, for sizing its span buffer.
func (rp *replayer) expected(n int) int {
	if rp == nil {
		return 0
	}
	return n/rp.stride + 1
}

func (rp *replayer) sampled(i int) bool { return rp != nil && i%rp.stride == 0 }

// replayClient is one client goroutine's replay state.
type replayClient struct {
	rp  *replayer
	ctx *fastintersect.ExecContext
	buf []uint32
	ops []*fastintersect.List
	sto []*compress.Stored
	acc replayAcc
}

func (rp *replayer) client() *replayClient {
	if rp == nil {
		return nil
	}
	return &replayClient{rp: rp, ctx: fastintersect.GetExecContext()}
}

func (c *replayClient) sampled(i int) bool { return c != nil && c.rp.sampled(i) }

// release returns the client's context and folds its sums into the
// replayer's.
func (c *replayClient) release() {
	if c == nil {
		return
	}
	c.ctx.Release()
	c.rp.mu.Lock()
	defer c.rp.mu.Unlock()
	a, b := &c.rp.acc, &c.acc
	a.n += b.n
	a.parses += b.parses
	a.parseNs += b.parseNs
	for i := range a.kernelNs {
		a.kernelNs[i] += b.kernelNs[i]
	}
	a.oracleNs += b.oracleNs
	a.compressNs += b.compressNs
	a.elems += b.elems
	a.resultRatioSum += b.resultRatioSum
}

func (c *replayClient) operands(q *query) []*fastintersect.List {
	c.ops = c.ops[:0]
	for _, t := range q.and {
		c.ops = append(c.ops, c.rp.lists[t])
	}
	return c.ops
}

// replay times q through each layer as children of the operation's root
// span. Every kernel and the compressed path must return the same number of
// documents; a disagreement is an error.
func (c *replayClient) replay(sb *spanBuf, root, req int32, q *query) error {
	h := sb.begin(spPlanParse, root, req)
	n, err := plan.Parse(q.text)
	if err == nil {
		_ = plan.Normalize(n).String()
	}
	c.acc.parseNs += sb.end(h)
	c.acc.parses++
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	ops := c.operands(q)
	var elems int64
	smallest := math.MaxInt
	for _, l := range ops {
		elems += int64(l.Len())
		smallest = min(smallest, l.Len())
	}
	r, best := -1, int64(math.MaxInt64)
	for i, k := range kernelAlgos {
		h := sb.begin(k.span, root, req)
		c.buf, err = fastintersect.IntersectInto(c.ctx, c.buf[:0], k.algo, ops...)
		ns := sb.end(h)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		if r >= 0 && len(c.buf) != r {
			return fmt.Errorf("%s found %d documents, %s %d", k.name, len(c.buf), kernelAlgos[0].name, r)
		}
		r = len(c.buf)
		c.acc.kernelNs[i] += ns
		best = min(best, ns)
	}
	c.sto = c.sto[:0]
	for _, t := range q.and {
		c.sto = append(c.sto, c.rp.stored[t])
	}
	h = sb.begin(spCompress, root, req)
	c.buf = compress.IntersectStoredInto(c.buf[:0], c.sto...)
	c.acc.compressNs += sb.end(h)
	if len(c.buf) != r {
		return fmt.Errorf("compressed path found %d documents, kernels %d", len(c.buf), r)
	}
	c.acc.n++
	c.acc.oracleNs += best
	c.acc.elems += elems
	if smallest > 0 {
		c.acc.resultRatioSum += float64(r) / float64(smallest)
	}
	return nil
}
