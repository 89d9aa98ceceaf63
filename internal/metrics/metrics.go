// Package metrics implements the evaluation measures of §V: task-aware
// top-1 accuracy, average accuracy over learned tasks, and the forgetting
// rate of §V-D.
package metrics

// Matrix is the continual-learning accuracy matrix: Acc[i][j] is the
// accuracy on task j measured after learning tasks 0..i (j ≤ i).
type Matrix struct {
	Acc [][]float64
}

// NewMatrix returns an empty matrix for n tasks.
func NewMatrix(n int) *Matrix {
	m := &Matrix{Acc: make([][]float64, n)}
	for i := range m.Acc {
		m.Acc[i] = make([]float64, i+1)
	}
	return m
}

// Set records accuracy on task j after learning task i.
func (m *Matrix) Set(after, task int, acc float64) { m.Acc[after][task] = acc }

// Get reads accuracy on task j after learning task i.
func (m *Matrix) Get(after, task int) float64 { return m.Acc[after][task] }

// AvgAccuracy is the paper's reported accuracy for task t_m: the average
// accuracy over all m learned tasks (0-based index `after`).
func (m *Matrix) AvgAccuracy(after int) float64 {
	row := m.Acc[after]
	var s float64
	for _, a := range row {
		s += a
	}
	return s / float64(len(row))
}

// ForgettingRate implements §V-D: after learning m tasks, the forgetting
// rate of task k (k < m) is (acc_after_k − acc_after_m) / acc_after_k,
// clamped to [0, 1]; the reported value is the mean over all previous tasks.
func (m *Matrix) ForgettingRate(after int) float64 {
	if after == 0 {
		return 0
	}
	var s float64
	n := 0
	for k := 0; k < after; k++ {
		orig := m.Acc[k][k]
		if orig <= 0 {
			continue
		}
		f := (orig - m.Acc[after][k]) / orig
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		s += f
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
