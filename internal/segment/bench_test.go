package segment

import (
	"testing"
	"time"

	"fastintersect/internal/workload"
)

// churnAdds returns the adds of an n-operation churn stream over a
// 50 000-term vocabulary: the documents the benchmark's churn workload
// writes into active segments.
func churnAdds(n int) []workload.ChurnOp {
	rc := workload.SmallRealConfig()
	rc.NumDocs, rc.NumQueries = 50_000, 64
	var adds []workload.ChurnOp
	for _, op := range workload.NewReal(rc).ChurnStream(n, workload.DefaultChurnConfig()) {
		if op.Kind == workload.ChurnAdd {
			adds = append(adds, op)
		}
	}
	return adds
}

// BenchmarkFreeze times one freeze of an active segment holding about 1 000
// postings — one shard's compaction threshold in the benchmark's churn
// workload. The freeze runs under the shard's write lock, so its time is
// the pause a freeze adds to that shard's readers and writers.
func BenchmarkFreeze(b *testing.B) {
	var adds []workload.ChurnOp
	postings := 0
	for _, op := range churnAdds(20_000) {
		if postings < 1_000 {
			adds = append(adds, op)
			postings += len(op.Terms)
		}
	}
	// Each iteration fills a fresh segment untimed; only the freeze is
	// clocked, into freeze-ns/op (ns/op also counts the fill).
	var frozen time.Duration
	for i := 0; i < b.N; i++ {
		m := NewMutable()
		for _, op := range adds {
			m.AddDoc(op.DocID, op.Terms)
		}
		start := time.Now()
		m.Freeze()
		frozen += time.Since(start)
	}
	b.ReportMetric(float64(postings), "postings")
	b.ReportMetric(float64(frozen.Nanoseconds())/float64(b.N), "freeze-ns/op")
}

// BenchmarkMergeTiered times a size-tiered merge of five frozen segments of
// about 1 000 churn postings each: the fan-in the default MaxSegments bound
// leads to.
func BenchmarkMergeTiered(b *testing.B) {
	var inputs []*Frozen
	m := NewMutable()
	for _, op := range churnAdds(40_000) {
		m.AddDoc(op.DocID, op.Terms)
		if m.NumPostings() >= 1_000 {
			inputs = append(inputs, m.Freeze())
			if m = NewMutable(); len(inputs) == 5 {
				break
			}
		}
	}
	snaps := make([][]uint32, len(inputs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(inputs, snaps, 1)
	}
}
