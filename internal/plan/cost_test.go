package plan

import "testing"

// BenchmarkCalibrate times one whole calibration, the start-up cost every
// process that plans pays once (plan.Calibrated): the four raw-list anchors
// at serving size and the cache-resident coefficients.
func BenchmarkCalibrate(b *testing.B) {
	for b.Loop() {
		Calibrate()
	}
}
