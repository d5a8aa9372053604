package workload

import (
	"math"
	"time"

	"fastintersect/internal/xhash"
)

// Arrivals returns n absolute arrival offsets (measured from the start of
// the load window) of an open-loop Poisson process with mean rate qps:
// inter-arrival gaps are exponentially distributed, so the stream has the
// bursty moments a constant-gap generator hides. Open-loop is the point —
// internal/admission's saturation test (TestOverloadShedding) offers load
// on this schedule regardless of how the gate is coping, which is what
// exposes queue collapse. Deterministic in seed.
func Arrivals(n int, qps float64, seed uint64) []time.Duration {
	if n <= 0 || qps <= 0 {
		return nil
	}
	rng := xhash.NewRNG(seed)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		u := rng.Float64()
		for u <= 0 { // Float64 is [0,1); Log(0) would be -Inf
			u = rng.Float64()
		}
		t += -math.Log(u) / qps
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
