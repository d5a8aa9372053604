package harness

import (
	"testing"
)

// TestOverloadBench is the CI saturation smoke: it runs the overload sweep
// at the small scale and asserts the shedding invariants the PR's
// acceptance criteria name — at ≥2× capacity offered load the shedding
// configuration holds accepted p99 within 3× of the uncontended p99 while
// the unbounded-queue baseline does not, and goodput with shedding is at
// least goodput without, with the gate's counters accounting for every
// offered request (the accounting identity is asserted inside
// runOverloadPoint, which panics on a mismatch).
func TestOverloadBench(t *testing.T) {
	if testing.Short() {
		t.Skip("offers multi-second open-loop load")
	}
	rep := OverloadBench(tinyConfig())
	if rep.Schema != "fsibench/overload/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.CapacityQPS <= 0 || rep.UncontendedP99US <= 0 {
		t.Fatalf("degenerate calibration: capacity=%.1f uncontended p99=%.1fus",
			rep.CapacityQPS, rep.UncontendedP99US)
	}
	points := map[string]map[float64]OverloadPoint{}
	for _, p := range rep.Points {
		if points[p.Mode] == nil {
			points[p.Mode] = map[float64]OverloadPoint{}
		}
		points[p.Mode][p.Multiple] = p
		if p.Accepted+p.Rejected+p.Shed != p.Offered {
			t.Errorf("%s x%.1f: accepted(%d)+rejected(%d)+shed(%d) != offered(%d)",
				p.Mode, p.Multiple, p.Accepted, p.Rejected, p.Shed, p.Offered)
		}
	}
	for _, mult := range []float64{2, 3} {
		shed, ok1 := points["shed"][mult]
		noshed, ok2 := points["noshed"][mult]
		if !ok1 || !ok2 {
			t.Fatalf("missing %gx points", mult)
		}
		// Bounded tail latency under overload: the 3× acceptance bound, with
		// the design headroom being ~2× (queue depth = inflight, so worst
		// accepted wait ≈ one extra service time).
		if shed.AcceptedP99US > 3*rep.UncontendedP99US {
			t.Errorf("shed x%.0f accepted p99 %.0fus exceeds 3x uncontended %.0fus",
				mult, shed.AcceptedP99US, rep.UncontendedP99US)
		}
		// The naive baseline must visibly blow the same bound — otherwise
		// the experiment isn't actually saturating and the shed numbers
		// prove nothing.
		if noshed.AcceptedP99US <= 3*rep.UncontendedP99US {
			t.Errorf("noshed x%.0f accepted p99 %.0fus unexpectedly within 3x uncontended %.0fus (not saturated?)",
				mult, noshed.AcceptedP99US, rep.UncontendedP99US)
		}
		t.Logf("x%.0f: accepted p99 shed %.0fµs, noshed %.0fµs (uncontended %.0fµs); goodput shed %.0f, noshed %.0f qps",
			mult, shed.AcceptedP99US, noshed.AcceptedP99US, rep.UncontendedP99US, shed.GoodputQPS, noshed.GoodputQPS)
		// Shedding must not cost goodput.
		if shed.GoodputQPS < noshed.GoodputQPS {
			t.Errorf("shed x%.0f goodput %.0f < noshed %.0f",
				mult, shed.GoodputQPS, noshed.GoodputQPS)
		}
	}
}
