package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"fastintersect"
	"fastintersect/internal/engine"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

func testCorpus(t testing.TB) *workload.Real {
	t.Helper()
	return workload.NewReal(workload.RealConfig{
		NumDocs:    20_000,
		NumTerms:   2_000,
		NumQueries: 300,
		ZipfS:      0.7,
		TopDFFrac:  0.2,
		HotFrac:    0.08,
		HotWeight:  8,
		Seed:       0xFEED,
	})
}

func testServer(t testing.TB, corpus *workload.Real, shards int) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Config{Shards: shards, CacheSize: 256})
	if err := loadCorpus(eng, corpus); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng).handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func getQuery(t *testing.T, ts *httptest.Server, q string) (queryResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {q}, "limit": {"-1"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return qr, resp.StatusCode
}

// TestServeMatchesDirectIntersection is the acceptance test: served /query
// results over a >= 4-shard index must equal fastintersect.IntersectSorted
// run directly over the same posting lists, under concurrent requests.
func TestServeMatchesDirectIntersection(t *testing.T) {
	corpus := testCorpus(t)
	ts, _ := testServer(t, corpus, 5)

	// Preprocess each referenced posting list once, directly via the
	// public API — the ground truth the served results must match.
	prepped := map[int]*fastintersect.List{}
	var mu sync.Mutex
	direct := func(q workload.Query) []uint32 {
		mu.Lock()
		defer mu.Unlock()
		lists := make([]*fastintersect.List, len(q.Terms))
		for i, term := range q.Terms {
			l, ok := prepped[term]
			if !ok {
				var err error
				l, err = fastintersect.Preprocess(corpus.Postings[term])
				if err != nil {
					t.Errorf("preprocess term %d: %v", term, err)
					return nil
				}
				prepped[term] = l
			}
			lists[i] = l
		}
		out, err := fastintersect.IntersectSorted(lists...)
		if err != nil {
			t.Errorf("direct intersect: %v", err)
			return nil
		}
		return out
	}

	queries := corpus.Queries[:100]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(queries); i += 8 {
				q := queries[i]
				names := make([]string, len(q.Terms))
				for j, term := range q.Terms {
					names[j] = workload.TermName(term)
				}
				qs := strings.Join(names, " AND ")
				qr, code := getQuery(t, ts, qs)
				if code != http.StatusOK {
					t.Errorf("query %q: status %d", qs, code)
					return
				}
				want := direct(q)
				if !sets.Equal(qr.Docs, want) {
					t.Errorf("query %q: served %d docs, direct %d", qs, len(qr.Docs), len(want))
					return
				}
				if qr.Count != len(want) {
					t.Errorf("query %q: count %d != %d", qs, qr.Count, len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeBooleanOperators verifies OR/NOT queries against reference set
// algebra over the raw posting lists.
func TestServeBooleanOperators(t *testing.T) {
	corpus := testCorpus(t)
	ts, _ := testServer(t, corpus, 4)
	p := func(term int) []uint32 { return corpus.Postings[term] }
	name := workload.TermName

	cases := []struct {
		q    string
		want []uint32
	}{
		{
			fmt.Sprintf("%s OR %s", name(10), name(11)),
			sets.Union(p(10), p(11)),
		},
		{
			fmt.Sprintf("%s AND NOT %s", name(5), name(6)),
			sets.Difference(p(5), p(6)),
		},
		{
			fmt.Sprintf("(%s AND %s) OR %s", name(3), name(4), name(900)),
			sets.Union(sets.IntersectReference(p(3), p(4)), p(900)),
		},
		{
			fmt.Sprintf("%s AND (%s OR %s)", name(7), name(8), name(9)),
			sets.IntersectReference(p(7), sets.Union(p(8), p(9))),
		},
	}
	for _, c := range cases {
		qr, code := getQuery(t, ts, c.q)
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d", c.q, code)
		}
		if !sets.Equal(qr.Docs, c.want) {
			t.Fatalf("query %q: served %d docs, reference %d", c.q, len(qr.Docs), len(c.want))
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	corpus := testCorpus(t)
	ts, _ := testServer(t, corpus, 4)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// A couple of queries so /stats has something to report.
	if _, code := getQuery(t, ts, workload.TermName(42)); code != http.StatusOK {
		t.Fatalf("warm-up query failed: %d", code)
	}
	if _, code := getQuery(t, ts, workload.TermName(42)); code != http.StatusOK {
		t.Fatalf("warm-up query failed: %d", code)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Docs counts distinct indexed documents — the union of the corpus's
	// posting lists (documents the generator never sampled are not indexed).
	wantDocs := uint64(len(sets.UnionKInto(nil, corpus.Postings...)))
	if st.Shards != 4 || st.Queries < 2 || st.Cache.Hits < 1 || st.Docs != wantDocs {
		t.Fatalf("stats = %+v, want docs = %d", st, wantDocs)
	}
	// Every corpus posting sits in a shard's one segment, and every list is
	// an exact-size []uint32: 4 bytes a posting.
	wantPostings := uint64(0)
	for _, l := range corpus.Postings {
		wantPostings += uint64(len(l))
	}
	if p := st.Postings; p.Total != wantPostings || p.StoredBytes != 4*wantPostings {
		t.Fatalf("postings accounting = %+v, want %d postings", p, wantPostings)
	}

	// Bad queries are 400s with a JSON error.
	for _, bad := range []string{"", "NOT x", "a AND ("} {
		_, code := getQuery(t, ts, bad)
		if code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", bad, code)
		}
	}

	// Truncation contract.
	respT, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(workload.TermName(0)) + "&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer respT.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(respT.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Docs) != 5 || !qr.Truncated || qr.Count <= 5 {
		t.Fatalf("truncated response = docs:%d truncated:%v count:%d", len(qr.Docs), qr.Truncated, qr.Count)
	}
}

func TestQueryStreamParsesAndServes(t *testing.T) {
	corpus := testCorpus(t)
	ts, _ := testServer(t, corpus, 4)
	stream := corpus.QueryStream(60, workload.StreamConfig{OrFrac: 0.3, NotFrac: 0.3, Seed: 7})
	if len(stream) != 60 {
		t.Fatalf("stream length %d", len(stream))
	}
	for _, q := range stream {
		if _, code := getQuery(t, ts, q); code != http.StatusOK {
			t.Fatalf("stream query %q: status %d", q, code)
		}
	}
}

// TestServeLimitValidation pins the limit contract: -1 is the explicit
// "no limit", 0 is count-only (empty docs, count intact), positive caps, and
// anything below -1 — previously a silent "unlimited" — is rejected.
func TestServeLimitValidation(t *testing.T) {
	corpus := testCorpus(t)
	ts, _ := testServer(t, corpus, 2)
	get := func(limit string) (queryResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {workload.TermName(0)}, "limit": {limit}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				t.Fatal(err)
			}
		}
		return qr, resp.StatusCode
	}
	for _, bad := range []string{"-2", "-100", "abc", "1.5"} {
		if _, code := get(bad); code != http.StatusBadRequest {
			t.Fatalf("limit=%s: status %d, want 400", bad, code)
		}
	}
	full, code := get("-1")
	if code != http.StatusOK || full.Truncated || len(full.Docs) != full.Count || full.Count == 0 {
		t.Fatalf("limit=-1: code=%d truncated=%v docs=%d count=%d", code, full.Truncated, len(full.Docs), full.Count)
	}
	countOnly, code := get("0")
	if code != http.StatusOK || len(countOnly.Docs) != 0 || countOnly.Count != full.Count || !countOnly.Truncated {
		t.Fatalf("limit=0: code=%d docs=%v count=%d truncated=%v", code, countOnly.Docs, countOnly.Count, countOnly.Truncated)
	}
}

// TestServeNotBuilt pins the 503 contract on every index-touching endpoint
// before an index is installed.
func TestServeNotBuilt(t *testing.T) {
	eng := engine.New(engine.Config{Shards: 2})
	ts := httptest.NewServer(newServer(eng).handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/query?q=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query before install: %d, want 503", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/index/doc", "application/json",
		strings.NewReader(`{"doc_id":1,"terms":["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add before install: %d, want 503", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/index/doc/1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete before install: %d, want 503", resp.StatusCode)
	}
}

func postDoc(t *testing.T, ts *httptest.Server, body string) (mutationResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/index/doc", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr mutationResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
	}
	return mr, resp.StatusCode
}

func deleteDoc(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/index/doc/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeMutationEndpoints drives the live-update API end to end: an
// added document answers queries immediately
// (including previously cached ones), a deleted one disappears, and /stats
// surfaces the mutation/delta/generation counters.
func TestServeMutationEndpoints(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		corpus := testCorpus(t)
		ts, _ := testServer(t, corpus, 3)
		probe := workload.TermName(7)

		before, code := getQuery(t, ts, probe) // warms the cache
		if code != http.StatusOK {
			t.Fatalf("probe query: %d", code)
		}

		// Add a brand-new document carrying the probe term.
		const newID = 1_000_000
		mr, code := postDoc(t, ts, fmt.Sprintf(`{"doc_id":%d,"terms":[%q,"zzz-fresh"]}`, newID, probe))
		if code != http.StatusOK || mr.Status != "indexed" || mr.Generation == 0 {
			t.Fatalf("add: code=%d resp=%+v", code, mr)
		}
		after, code := getQuery(t, ts, probe)
		if code != http.StatusOK {
			t.Fatalf("post-add query: %d", code)
		}
		if after.Cached || after.Count != before.Count+1 || !sets.Contains(after.Docs, newID) {
			t.Fatalf("added doc not served fresh: cached=%v count %d→%d", after.Cached, before.Count, after.Count)
		}
		if fresh, _ := getQuery(t, ts, "zzz-fresh"); fresh.Count != 1 || fresh.Docs[0] != newID {
			t.Fatalf("fresh term query = %+v", fresh)
		}

		// Delete an original corpus document that matches the probe.
		victim := after.Docs[0]
		if victim == newID {
			victim = after.Docs[1]
		}
		if code := deleteDoc(t, ts, fmt.Sprint(victim)); code != http.StatusOK {
			t.Fatalf("delete: %d", code)
		}
		gone, _ := getQuery(t, ts, probe)
		if sets.Contains(gone.Docs, victim) || gone.Count != after.Count-1 {
			t.Fatalf("deleted doc still served: count %d→%d", after.Count, gone.Count)
		}
		// Deleting it again: 404.
		if code := deleteDoc(t, ts, fmt.Sprint(victim)); code != http.StatusNotFound {
			t.Fatalf("double delete: %d, want 404", code)
		}

		// Malformed mutations are 400s.
		for _, bad := range []string{``, `{`, `{"doc_id":1}`, `{"doc_id":1,"terms":[]}`, `{"doc_id":1,"terms":[""]}`, `{"doc_id":-1,"terms":["a"]}`, `{"doc_id":1,"terms":["a"],"nope":1}`} {
			if _, code := postDoc(t, ts, bad); code != http.StatusBadRequest {
				t.Fatalf("body %q: code %d, want 400", bad, code)
			}
		}
		if code := deleteDoc(t, ts, "notanumber"); code != http.StatusBadRequest {
			t.Fatalf("bad delete id: %d, want 400", code)
		}
		if code := deleteDoc(t, ts, "99999999999"); code != http.StatusBadRequest {
			t.Fatalf("out-of-range delete id: %d, want 400", code)
		}

		// /stats surfaces the mutable tier.
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stat statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stat); err != nil {
			t.Fatal(err)
		}
		// Effective mutations: one add + one delete (the 404 double
		// delete is a no-op and must not invalidate the cache). Only the
		// delete tombstones anything — the added doc is brand new, so no
		// older segment holds a copy to suppress.
		if stat.Mutations != 2 || stat.Generation < 3 || stat.Delta.Docs != 1 || stat.Delta.Tombstones < 1 {
			t.Fatalf("stats mutable tier = mutations:%d gen:%d delta:%+v",
				stat.Mutations, stat.Generation, stat.Delta)
		}
	})
}

// TestServeChurn replays an interleaved add/delete/query stream over HTTP
// against a scan-based reference for a single probe term, which the
// service must track exactly.
func TestServeChurn(t *testing.T) {
	corpus := testCorpus(t)
	ts, eng := testServer(t, corpus, 4)
	probe := "churn-term"
	live := map[uint32]bool{}
	rngState := uint64(0x1234567)
	rng := func(n int) int { rngState = rngState*6364136223846793005 + 1; return int(rngState>>33) % n }
	for i := 0; i < 300; i++ {
		id := uint32(2_000_000 + rng(100))
		switch rng(3) {
		case 0:
			if _, code := postDoc(t, ts, fmt.Sprintf(`{"doc_id":%d,"terms":[%q]}`, id, probe)); code != http.StatusOK {
				t.Fatalf("op %d add: %d", i, code)
			}
			live[id] = true
		case 1:
			code := deleteDoc(t, ts, fmt.Sprint(id))
			if want := http.StatusOK; !live[id] {
				want = http.StatusNotFound
				if code != want {
					t.Fatalf("op %d delete absent: %d, want %d", i, code, want)
				}
			} else if code != want {
				t.Fatalf("op %d delete live: %d, want %d", i, code, want)
			}
			delete(live, id)
		default:
			qr, code := getQuery(t, ts, probe)
			if code != http.StatusOK {
				t.Fatalf("op %d query: %d", i, code)
			}
			if qr.Count != len(live) {
				t.Fatalf("op %d: served %d docs, reference has %d live", i, qr.Count, len(live))
			}
			for _, d := range qr.Docs {
				if !live[d] {
					t.Fatalf("op %d: resurrected doc %d", i, d)
				}
			}
		}
	}
	// Fold everything into the base and re-check.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	qr, _ := getQuery(t, ts, probe)
	if qr.Count != len(live) {
		t.Fatalf("post-compaction: %d docs, want %d", qr.Count, len(live))
	}
}

// TestServeExplain checks explain=1: the response carries the executed
// physical plan, results are unchanged, and cache hits still explain.
func TestServeExplain(t *testing.T) {
	corpus := testCorpus(t)
	t.Run("raw", func(t *testing.T) {
		ts, _ := testServer(t, corpus, 2)
		q := workload.TermName(0) + " AND " + workload.TermName(7)
		plain, code := getQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("plain query: HTTP %d", code)
		}
		if plain.Plan != "" {
			t.Error("plan rendered without explain=1")
		}
		resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {q}, "explain": {"1"}, "limit": {"-1"}}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != plain.Count || !sets.Equal(qr.Docs, plain.Docs) {
			t.Errorf("explain changed the result: %d docs vs %d", qr.Count, plain.Count)
		}
		if !strings.Contains(qr.Plan, "AND kernel=") || !strings.Contains(qr.Plan, "term "+workload.TermName(0)) {
			t.Errorf("plan missing kernel/operand lines:\n%s", qr.Plan)
		}
		if !qr.Cached {
			t.Error("second request (explain) should have hit the cache")
		}
	})
}

// TestServeSyntaxErrorOffset pins the satellite: a 400 for a malformed
// query names the byte offset of the offending token.
func TestServeSyntaxErrorOffset(t *testing.T) {
	ts, _ := testServer(t, testCorpus(t), 1)
	resp, err := http.Get(ts.URL + "/query?" + url.Values{"q": {"a AND AND b"}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	// "a AND AND b": the surplus AND starts at byte 6.
	if !strings.Contains(er.Error, "offset 6") {
		t.Errorf("400 body %q does not name offset 6", er.Error)
	}
}

// TestServeQueryBatch drives POST /query/batch: per-item results match
// individual /query calls, a parse error stays in its slot, and the limit
// applies per query.
func TestServeQueryBatch(t *testing.T) {
	ts, _ := testServer(t, testCorpus(t), 2)
	t0, t1, t2 := workload.TermName(0), workload.TermName(1), workload.TermName(2)
	queries := []string{
		t0 + " AND " + t1,
		t1 + " " + t0, // same canonical form
		t2 + " OR " + t0,
		"NOT " + t0, // unbounded: per-item error
	}
	body, _ := json.Marshal(map[string]any{"queries": queries, "limit": 5})
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(br.Results), len(queries))
	}
	for i := 0; i < 3; i++ {
		item := br.Results[i]
		if item.Error != "" {
			t.Fatalf("query %d: %s", i, item.Error)
		}
		want, code := getQuery(t, ts, queries[i])
		if code != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, code)
		}
		if item.Count != want.Count {
			t.Errorf("query %d: batch count %d, single count %d", i, item.Count, want.Count)
		}
		if item.Count > 5 && (!item.Truncated || len(item.Docs) != 5) {
			t.Errorf("query %d: limit not applied (%d docs, truncated=%v)", i, len(item.Docs), item.Truncated)
		}
	}
	if br.Results[0].Normalized != br.Results[1].Normalized {
		t.Error("commuted queries did not share a canonical form")
	}
	if br.Results[3].Error == "" {
		t.Error("unbounded query did not report an error")
	}

	// Malformed bodies and empty batches are request-level 400s.
	for _, bad := range []string{"{", `{"queries": []}`, `{"queries": ["a"], "limit": -2}`} {
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestSnapshotRestartServesIdentically pins the -snapshot-dir contract at
// the HTTP layer: a server whose engine took live mutations is snapshotted,
// a second engine restores the snapshot (the restart), and both servers must
// answer the same queries with the same documents — including the mutated
// ones.
func TestSnapshotRestartServesIdentically(t *testing.T) {
	corpus := testCorpus(t)
	ts, eng := testServer(t, corpus, 2)

	post := func(body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/index/doc", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add doc: status %d", resp.StatusCode)
		}
	}
	post(`{"doc_id": 900001, "terms": ["t0", "t1"]}`)
	post(`{"doc_id": 900002, "terms": ["t0"]}`)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/index/doc/900002", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete doc: status %d", resp.StatusCode)
	}

	dir := t.TempDir()
	if err := eng.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored := engine.New(engine.Config{Shards: 2, CacheSize: 256})
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newServer(restored).handler())
	defer ts2.Close()

	for _, q := range []string{"t0", "t0 AND t1", "t1 OR t2", "t0 AND NOT t3"} {
		a, code := getQuery(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("%q: status %d", q, code)
		}
		b, code := getQuery(t, ts2, q)
		if code != http.StatusOK {
			t.Fatalf("%q: restored status %d", q, code)
		}
		if !sets.Equal(a.Docs, b.Docs) {
			t.Fatalf("%q: restored server returned %d docs, original %d", q, len(b.Docs), len(a.Docs))
		}
	}
	if _, code := getQuery(t, ts2, "t0 AND t1"); code != http.StatusOK {
		t.Fatal("restored server not serving")
	}
}
