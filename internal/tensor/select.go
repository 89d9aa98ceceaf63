package tensor

import "math"

// Per-coordinate order-statistic kernels for Byzantine-robust aggregation.
//
// The robust rules (trimmed mean, coordinate median) need a small sort per
// coordinate across the round's updates. Rows are laid out update-major
// (rows[i] is client i's full parameter vector), so the kernels walk
// coordinate-major with a per-chunk scratch buffer and parallelise over
// disjoint coordinate ranges via Parallel — each coordinate's result depends
// only on that coordinate's column, never on the chunking, which keeps the
// output bitwise identical for every KernelThreads setting.

// TrimmedMeanCols writes into dst the per-coordinate beta-trimmed weighted
// mean of rows: for each coordinate the (value, weight) pairs are sorted by
// value (ties broken by ascending row index, so the result is deterministic),
// `trim` entries are dropped from each end, and the surviving values are
// combined as a float64 weighted mean. All rows must have len(dst) elements
// and 2*trim must be < len(rows). weights must have one entry per row; a
// non-positive weight counts as 1.
func TrimmedMeanCols(dst []float32, rows [][]float32, weights []float64, trim int) {
	m := len(rows)
	if m == 0 || 2*trim >= m {
		panic("tensor: TrimmedMeanCols needs 2*trim < len(rows)")
	}
	Parallel(len(dst), func(lo, hi int) {
		vals := make([]float32, m)
		ws := make([]float64, m)
		for j := lo; j < hi; j++ {
			for i, r := range rows {
				vals[i] = r[j]
				w := weights[i]
				if w <= 0 {
					w = 1
				}
				ws[i] = w
			}
			sortColumn(vals, ws)
			var sum, wsum float64
			for i := trim; i < m-trim; i++ {
				sum += float64(ws[i] * float64(vals[i]))
				wsum += ws[i]
			}
			dst[j] = float32(sum / wsum)
		}
	})
}

// MedianCols writes into dst the per-coordinate median of rows, ignoring
// weights (a Byzantine client controls its own weight, so the median treats
// every update equally). For an even number of rows the two middle values are
// averaged in float64. All rows must have len(dst) elements.
func MedianCols(dst []float32, rows [][]float32) {
	m := len(rows)
	if m == 0 {
		panic("tensor: MedianCols needs at least one row")
	}
	Parallel(len(dst), func(lo, hi int) {
		vals := make([]float32, m)
		for j := lo; j < hi; j++ {
			for i, r := range rows {
				vals[i] = r[j]
			}
			sortVals(vals)
			if m%2 == 1 {
				dst[j] = vals[m/2]
			} else {
				dst[j] = float32((float64(vals[m/2-1]) + float64(vals[m/2])) / 2)
			}
		}
	})
}

// SqDist64 returns the squared Euclidean distance between a and b accumulated
// in float64. The two slices must have equal length.
func SqDist64(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s
}

// AllFinite reports whether every element of x is a finite float32 (no NaN,
// no ±Inf). It checks the exponent bits directly so the scan stays branch-light
// on the server's ingest path.
func AllFinite(x []float32) bool {
	for _, v := range x {
		if (math.Float32bits(v)>>23)&0xFF == 0xFF {
			return false
		}
	}
	return true
}

// sortColumn insertion-sorts the (value, weight) pairs by ascending value.
// Insertion sort is stable, so equal values keep their ascending-row-index
// order — the tie-break that makes the trimmed mean deterministic. Columns are
// cohort-sized (tens of entries), where insertion sort beats sort.Slice by a
// wide margin and allocates nothing.
func sortColumn(vals []float32, ws []float64) {
	for i := 1; i < len(vals); i++ {
		v, w := vals[i], ws[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1], ws[j+1] = vals[j], ws[j]
			j--
		}
		vals[j+1], ws[j+1] = v, w
	}
}

// sortVals insertion-sorts values ascending (see sortColumn for why).
func sortVals(vals []float32) {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
}
