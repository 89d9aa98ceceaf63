package nn

import (
	"math"

	"repro/internal/tensor"
)

// Softmax computes row-wise softmax of a (N, K) logits tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	p := tensor.New(logits.Shape...)
	softmaxInto(p, logits)
	return p
}

// softmaxInto writes row-wise softmax of logits into dst (same shape).
func softmaxInto(dst, logits *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		out := dst.Data[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// CrossEntropy computes mean cross-entropy between logits (N, K) and integer
// labels, returning the scalar loss and the gradient w.r.t. the logits.
// Labels outside [0, K) panic: callers must remap task classes first.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic("nn: CrossEntropy label count mismatch")
	}
	dlogits := tensor.New(n, k)
	softmaxInto(dlogits, logits)
	var loss float64
	invN := 1 / float64(n)
	for i, y := range labels {
		if y < 0 || y >= k {
			panic("nn: CrossEntropy label out of range")
		}
		loss -= math.Log(math.Max(float64(dlogits.Data[i*k+y]), 1e-12))
		dlogits.Data[i*k+y] -= 1
	}
	dlogits.ScaleInPlace(float32(invN))
	return loss * invN, dlogits
}

// SoftCrossEntropy computes mean cross-entropy between logits (N, K) and a
// target probability distribution (N, K), returning loss and logits
// gradient. This is the distillation loss the gradient restorer uses
// (Eq. 2 of the paper): targets are the soft outputs of the knowledge model.
func SoftCrossEntropy(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	if targets.Shape[0] != n || targets.Shape[1] != k {
		panic("nn: SoftCrossEntropy shape mismatch")
	}
	p := Softmax(logits)
	dlogits := tensor.New(n, k)
	var loss float64
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			t := float64(targets.Data[i*k+j])
			if t > 0 {
				loss -= float64(t * math.Log(math.Max(float64(p.Data[i*k+j]), 1e-12)))
			}
			dlogits.Data[i*k+j] = (p.Data[i*k+j] - targets.Data[i*k+j]) * float32(invN)
		}
	}
	return loss * invN, dlogits
}

// MaskedCrossEntropy is CrossEntropy restricted to a subset of classes
// (task-aware continual learning): logits outside the candidate set are
// treated as -inf so they receive zero probability and zero gradient. The
// softmax touches only the candidate columns — with 10-class tasks over a
// 100-way head that is a 10× smaller loop than the dense masked form, and
// it produces bit-identical values because the excluded columns contribute
// exact zeros to the partition sum.
func MaskedCrossEntropy(logits *tensor.Tensor, labels []int, classes []int) (float64, *tensor.Tensor) {
	return MaskedCrossEntropyInto(nil, logits, labels, classes)
}

// MaskedCrossEntropyInto is MaskedCrossEntropy writing the logits gradient
// into dst, reusing its storage when the capacity suffices (dst may be nil),
// so a training loop that keeps the returned tensor allocates nothing.
func MaskedCrossEntropyInto(dst, logits *tensor.Tensor, labels []int, classes []int) (float64, *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	dlogits := tensor.Ensure(dst, n, k)
	clear(dlogits.Data)
	var loss float64
	invN := 1 / float64(n)
	for i, y := range labels {
		row := logits.Data[i*k : (i+1)*k]
		out := dlogits.Data[i*k : (i+1)*k]
		maxV := float32(math.Inf(-1))
		for _, c := range classes {
			if v := row[c]; v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, c := range classes {
			e := math.Exp(float64(row[c] - maxV))
			out[c] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		var py float64
		for _, c := range classes {
			p := float32(out[c] * inv)
			py64 := float64(p)
			if c == y {
				py = py64
				p -= 1
			}
			out[c] = p * float32(invN)
		}
		loss -= math.Log(math.Max(py, 1e-12))
	}
	return loss * invN, dlogits
}
