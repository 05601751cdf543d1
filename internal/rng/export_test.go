package rng

// GeometricAt returns Geometric(m)'s sample for the uniform draw u, and
// whether the table path answered it rather than the math.Log fallback.
func GeometricAt(m, u float64) (n int, table bool) {
	if m <= 0 {
		return 0, false
	}
	var r Source
	r.setGeometricMean(m)
	if u <= 0 {
		u = 1e-18
	}
	if n, ok := r.geometricTable(u); ok {
		return n, true
	}
	return geometricLog(u, r.geoDen), false
}
