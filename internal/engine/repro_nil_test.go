package engine

import "testing"

func TestReproEmptyConjWithUnion(t *testing.T) {
	eng := New(Config{Shards: 1, CacheSize: 0})
	b := eng.NewBuilder()
	var as, bs []uint32
	for i := uint32(0); i < 20000; i++ {
		if i%2 == 0 {
			as = append(as, i)
		} else {
			bs = append(bs, i)
		}
	}
	b.AddPosting("a", as)
	b.AddPosting("b", bs)
	b.AddPosting("c", []uint32{2, 4, 6})
	if err := eng.Install(b); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("a b (c|a)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 0 {
		n := len(res.Docs)
		if n > 5 {
			n = 5
		}
		t.Errorf("a AND b = empty but query returned %d docs (first %v)", len(res.Docs), res.Docs[:n])
	}
}
