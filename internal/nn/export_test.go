package nn

// WithAllLive runs fn with every Conv2D taking every channel as alive: the
// layer then does the work it did before it looked for dead channels, on W,
// dY and W.Grad themselves. Holding the observing layer to this one, bit for
// bit, is how the liveness contract is tested; there is no such switch
// outside the tests. Not for parallel tests: the observation is package
// state.
func WithAllLive(fn func()) {
	prev := liveScan
	liveScan = func(dst []int, _ []float32, ch, _, _ int) []int {
		for k := 0; k < ch; k++ {
			dst = append(dst, k)
		}
		return dst
	}
	defer func() { liveScan = prev }()
	fn()
}

// LiveCounts returns how many input channels the layer's last Forward and how
// many rows of dY its last backward found alive.
func (c *Conv2D) LiveCounts() (in, out int) { return len(c.liveIn), len(c.liveOut) }
