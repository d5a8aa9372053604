package kerneltest

import (
	"fmt"
	"strings"
	"testing"

	"fastintersect/internal/engine"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// TestFeedbackPerfOnly is the adaptive planner's parity gate: feedback may
// change which kernel a plan picks, never what a query returns. One engine
// pair shares the whole corpus; the feedback engine traces every query
// (TraceSample 1) on top of a deliberately mis-priced base, so corrections are learned and published mid-run — re-planning
// queries the baseline engine keeps serving from its original plans — while
// every answer from both engines must stay equal to the scalar reference.
// Runs under -race in CI's feedback gate.
func TestFeedbackPerfOnly(t *testing.T) {
	// Mis-priced anchors: the gallop probe priced 8× too cheap, so the
	// re-fit has real corrections to find.
	miscal := plan.DefaultCosts()
	miscal.GallopProbe /= 8

	cases := Cases(corpusSeed)
	t.Run("raw-cost", func(t *testing.T) {
		build := func(feedback bool) *engine.Engine {
			e := engine.New(engine.Config{
				Shards:       2,
				PlanFeedback: feedback,
				TraceSample:  1,
				PlanCosts:    miscal,
			})
			b := e.NewBuilder()
			for ci, c := range cases {
				for i, set := range c.Sets {
					if len(set) == 0 {
						continue
					}
					if err := b.AddPosting(fmt.Sprintf("c%dt%d", ci, i), set); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := e.Install(b); err != nil {
				t.Fatal(err)
			}
			return e
		}
		on, off := build(true), build(false)

		queries := make([]string, len(cases))
		wants := make([][]uint32, len(cases))
		for ci, c := range cases {
			terms := make([]string, len(c.Sets))
			for i := range c.Sets {
				terms[i] = fmt.Sprintf("c%dt%d", ci, i)
			}
			queries[ci] = strings.Join(terms, " AND ")
			wants[ci] = sets.IntersectReference(c.Sets...)
		}
		// Enough repeats for several refit windows (one observation
		// per conjunction per query across the corpus).
		for rep := 0; rep < 20; rep++ {
			for ci := range cases {
				resOn, err := on.Query(queries[ci])
				if err != nil {
					t.Fatalf("feedback engine: %s: %v", cases[ci].Name, err)
				}
				resOff, err := off.Query(queries[ci])
				if err != nil {
					t.Fatalf("baseline engine: %s: %v", cases[ci].Name, err)
				}
				if !sets.Equal(resOn.Docs, wants[ci]) {
					t.Fatalf("rep %d: %s: feedback engine returned %d results, want %d",
						rep, cases[ci].Name, len(resOn.Docs), len(wants[ci]))
				}
				if !sets.Equal(resOff.Docs, wants[ci]) {
					t.Fatalf("rep %d: %s: baseline engine returned %d results, want %d",
						rep, cases[ci].Name, len(resOff.Docs), len(wants[ci]))
				}
			}
		}
		st := on.Stats()
		if st.FeedbackObservations == 0 {
			t.Fatal("feedback engine harvested no observations; the loop never engaged")
		}
		if st.FeedbackRefits == 0 {
			t.Fatalf("no refit after %d observations; parity was never tested against corrected plans",
				st.FeedbackObservations)
		}
	})
}
