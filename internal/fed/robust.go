package fed

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// Byzantine-robust aggregation rules. Unlike SparseFedAvg these rules are
// non-linear — a trimmed mean or a Krum winner cannot be folded
// coordinate-by-coordinate as updates stream in — so they run behind
// BufferedAggregator, which retains the round's decoded updates in pooled
// per-slot buffers and hands the inner rule a deterministic
// ascending-client-ID view at FinishRound. Every rule accumulates in float64
// and resolves order ties by ascending client/row index, so results are
// bitwise identical across kernel-thread counts, transports, and arrival
// orders.

// TrimmedMeanFedAvg is the coordinate-wise beta-trimmed weighted mean: for
// each coordinate the t = floor(beta·m) smallest and t largest values are
// dropped and the survivors averaged by client weight. It tolerates up to t
// Byzantine clients per coordinate. Beta 0 drops nothing, which makes the
// rule the exact weighted mean — it delegates to SparseFedAvg's arithmetic,
// so TrimmedMeanFedAvg(0) is bitwise identical to the server default on
// dense updates. Since beta < 0.5, beta·m rounds below m/2 for every cohort
// size, so floor(beta·m) always leaves at least one survivor.
type TrimmedMeanFedAvg struct {
	beta float64
	avg  SparseFedAvg // exact weighted-mean arithmetic for the beta=0 / t=0 case
	buf  []float32
	vecs [][]float32
	ws   []float64
}

// NewTrimmedMeanFedAvg returns the beta-trimmed mean rule; beta must be in
// [0, 0.5).
func NewTrimmedMeanFedAvg(beta float64) *TrimmedMeanFedAvg {
	if beta < 0 || beta >= 0.5 {
		panic("fed: trimmed-mean beta must be in [0, 0.5)")
	}
	return &TrimmedMeanFedAvg{beta: beta}
}

// Name identifies the aggregation rule and its trim fraction.
func (a *TrimmedMeanFedAvg) Name() string {
	return fmt.Sprintf("TrimmedMeanFedAvg(%g)", a.beta)
}

// Aggregate computes the per-coordinate trimmed weighted mean into reused
// scratch, or nil when the round had no participants.
func (a *TrimmedMeanFedAvg) Aggregate(updates []*Update) []float32 {
	m := len(updates)
	if m == 0 {
		return nil
	}
	trim := int(a.beta * float64(m))
	if trim == 0 {
		// No trimming: the weighted trimmed mean IS the weighted mean. Use the
		// streaming rule's exact arithmetic so the result is bitwise identical
		// to the server default.
		return a.avg.Aggregate(updates)
	}
	a.vecs, a.ws = gatherRows(a.vecs[:0], a.ws[:0], updates)
	n := len(a.vecs[0])
	if cap(a.buf) < n {
		a.buf = make([]float32, n)
	}
	a.buf = a.buf[:n]
	tensor.TrimmedMeanCols(a.buf, a.vecs, a.ws, trim)
	return a.buf
}

// CoordinateMedianFedAvg takes the per-coordinate median of the round's
// updates. Client weights are deliberately ignored — a Byzantine client
// reports its own weight, so any weight-sensitive rule hands the attacker a
// lever — which means the rule is NOT a drop-in for weighted FedAvg on
// honest-but-heterogeneous cohorts. It tolerates just under half the cohort
// lying per coordinate.
type CoordinateMedianFedAvg struct {
	buf  []float32
	vecs [][]float32
	ws   []float64
}

// Name identifies the aggregation rule.
func (a *CoordinateMedianFedAvg) Name() string { return "CoordinateMedianFedAvg" }

// Aggregate computes the per-coordinate median into reused scratch, or nil
// when the round had no participants.
func (a *CoordinateMedianFedAvg) Aggregate(updates []*Update) []float32 {
	if len(updates) == 0 {
		return nil
	}
	a.vecs, a.ws = gatherRows(a.vecs[:0], a.ws[:0], updates)
	n := len(a.vecs[0])
	if cap(a.buf) < n {
		a.buf = make([]float32, n)
	}
	a.buf = a.buf[:n]
	tensor.MedianCols(a.buf, a.vecs)
	return a.buf
}

// KrumFedAvg selects the single update closest to its m−f−2 nearest
// neighbours (squared Euclidean distance, float64) and returns it verbatim —
// the Krum rule, which tolerates f Byzantine clients as long as
// m ≥ 2f+3. Weights are ignored (see CoordinateMedianFedAvg). Ties are
// broken by ascending position in the round's ascending-client-ID order, so
// selection is deterministic.
type KrumFedAvg struct {
	f      int
	buf    []float32
	vecs   [][]float32
	ws     []float64
	scores []float64
	dists  []float64
}

// NewKrumFedAvg returns the Krum rule assuming at most f Byzantine clients;
// f must be non-negative.
func NewKrumFedAvg(f int) *KrumFedAvg {
	if f < 0 {
		panic("fed: krum f must be non-negative")
	}
	return &KrumFedAvg{f: f}
}

// Name identifies the aggregation rule and its Byzantine budget.
func (a *KrumFedAvg) Name() string { return fmt.Sprintf("KrumFedAvg(%d)", a.f) }

// Aggregate scores every update by the sum of squared distances to its
// m−f−2 nearest peers (at least one) and copies the lowest-scoring update
// into reused scratch, or returns nil when the round had no participants.
func (a *KrumFedAvg) Aggregate(updates []*Update) []float32 {
	m := len(updates)
	if m == 0 {
		return nil
	}
	a.vecs, a.ws = gatherRows(a.vecs[:0], a.ws[:0], updates)
	n := len(a.vecs[0])
	if cap(a.buf) < n {
		a.buf = make([]float32, n)
	}
	a.buf = a.buf[:n]
	if m == 1 {
		copy(a.buf, a.vecs[0])
		return a.buf
	}
	k := m - a.f - 2
	if k < 1 {
		k = 1
	}
	if k > m-1 {
		k = m - 1
	}
	if cap(a.scores) < m {
		a.scores = make([]float64, m)
	}
	a.scores = a.scores[:m]
	if cap(a.dists) < m-1 {
		a.dists = make([]float64, m-1)
	}
	for i := 0; i < m; i++ {
		d := a.dists[:0]
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			d = append(d, tensor.SqDist64(a.vecs[i], a.vecs[j]))
		}
		sort.Float64s(d)
		var s float64
		for _, v := range d[:k] {
			s += v
		}
		a.scores[i] = s
	}
	best := 0
	for i := 1; i < m; i++ {
		if a.scores[i] < a.scores[best] {
			best = i
		}
	}
	copy(a.buf, a.vecs[best])
	return a.buf
}

// FedOptServer applies server-side momentum on top of any inner rule
// (FedOpt/FedAvgM): with g the inner aggregate and x the previous global,
// the velocity update is v ← momentum·v + (g − x) and the new global is
// x + v, all element-wise in float32. Momentum 0 returns the inner result
// unchanged (bitwise — the identity path never touches the velocity), so
// FedOptServer(0, inner) is a transparent wrapper in the conformance suite.
// The first round has no previous global and passes g through while seeding
// the state.
type FedOptServer struct {
	momentum float64
	inner    Aggregator
	vel      []float32
	prev     []float32
	buf      []float32
}

// NewFedOptServer wraps inner with server momentum in [0, 1).
func NewFedOptServer(momentum float64, inner Aggregator) *FedOptServer {
	if momentum < 0 || momentum >= 1 {
		panic("fed: fedopt momentum must be in [0, 1)")
	}
	return &FedOptServer{momentum: momentum, inner: inner}
}

// Name identifies the wrapper, its momentum, and the inner rule.
func (a *FedOptServer) Name() string {
	return fmt.Sprintf("FedOpt(%g,%s)", a.momentum, a.inner.Name())
}

// Aggregate runs the inner rule, then folds its result through the server
// velocity. A nil inner result (empty round) leaves the state untouched and
// returns nil.
func (a *FedOptServer) Aggregate(updates []*Update) []float32 {
	g := a.inner.Aggregate(updates)
	if g == nil {
		return nil
	}
	if a.momentum == 0 {
		return g
	}
	n := len(g)
	if a.prev == nil || len(a.prev) != n {
		a.prev = append(a.prev[:0], g...)
		if cap(a.vel) < n {
			a.vel = make([]float32, n)
		} else {
			a.vel = a.vel[:n]
			clear(a.vel)
		}
		if cap(a.buf) < n {
			a.buf = make([]float32, n)
		}
		return g
	}
	a.buf = a.buf[:n]
	mu := float32(a.momentum)
	for i := 0; i < n; i++ {
		v := mu*a.vel[i] + (g[i] - a.prev[i])
		a.vel[i] = v
		a.buf[i] = a.prev[i] + v
	}
	a.prev = append(a.prev[:0], a.buf...)
	return a.buf
}

// bufferedSlot holds one retained update: a densified copy of its parameters
// plus the metadata the inner rule reads. Slots are pooled across rounds so
// steady-state rounds allocate nothing once the cohort size has been seen.
type bufferedSlot struct {
	u      Update
	params []float32
}

// BufferedAggregator adapts any buffering Aggregator to the StreamAggregator
// seam both schedulers drive: Accumulate deep-copies each update (densifying
// sparse ones) into a pooled slot — updates handed to Accumulate may alias
// transport decode buffers and are only valid for the call — and FinishRound
// sorts the retained slots by ascending client ID before handing them to the
// inner rule, so the reduction order is deterministic regardless of arrival
// order. Memory is bounded by cohort size × parameter length.
//
// Unlike SparseFedAvg, BufferedAggregator cannot export an open commit
// window as raw partial sums (the inner rules are non-linear), so a server
// snapshot restore drops any mid-window state and restarts the window empty;
// the restore path logs when that happens.
type BufferedAggregator struct {
	inner Aggregator
	slots []*bufferedSlot
	n     int
	refs  []*Update
}

// NewBuffered wraps inner in the buffering stream adapter.
func NewBuffered(inner Aggregator) *BufferedAggregator {
	return &BufferedAggregator{inner: inner}
}

// Name identifies the adapter and the inner rule.
func (b *BufferedAggregator) Name() string { return "Buffered(" + b.inner.Name() + ")" }

// BeginRound resets the round's slot count; pooled slot buffers are kept.
func (b *BufferedAggregator) BeginRound() { b.n = 0 }

// Accumulate deep-copies one participating update into a pooled slot,
// densifying sparse parameters and decoding a wire-form upload straight from
// its frame.
func (b *BufferedAggregator) Accumulate(u *Update) {
	if b.n == len(b.slots) {
		b.slots = append(b.slots, &bufferedSlot{})
	}
	s := b.slots[b.n]
	b.n++
	s.params = u.DenseInto(s.params)
	s.u = Update{
		ClientID:      u.ClientID,
		Participating: u.Participating,
		Weight:        u.Weight,
		Params:        s.params,
		BaseVersion:   u.BaseVersion,
	}
}

// FinishRound sorts the retained updates by ascending client ID and reduces
// them with the inner rule, or returns nil when no update was accumulated.
func (b *BufferedAggregator) FinishRound() []float32 {
	if b.n == 0 {
		return nil
	}
	b.refs = b.refs[:0]
	for i := 0; i < b.n; i++ {
		b.refs = append(b.refs, &b.slots[i].u)
	}
	sort.SliceStable(b.refs, func(i, j int) bool { return b.refs[i].ClientID < b.refs[j].ClientID })
	return b.inner.Aggregate(b.refs)
}

// Aggregate implements the buffered Aggregator interface in terms of the
// streaming one.
func (b *BufferedAggregator) Aggregate(updates []*Update) []float32 {
	b.BeginRound()
	for _, u := range updates {
		b.Accumulate(u)
	}
	return b.FinishRound()
}

// gatherRows collects the updates' dense parameter vectors and weights into
// reused slices for the per-coordinate kernels. Updates must be dense (the
// BufferedAggregator densifies on Accumulate); a zero weight counts as one.
func gatherRows(rows [][]float32, ws []float64, updates []*Update) ([][]float32, []float64) {
	for _, u := range updates {
		rows = append(rows, u.Params)
		w := u.Weight
		if w == 0 {
			w = 1
		}
		ws = append(ws, w)
	}
	return rows, ws
}

// ParseAggregator builds the server aggregation rule from a -aggregator
// spec:
//
//	fedavg                      weighted mean (the default, also for an empty
//	                            spec): SparseFedAvg at shards shards
//	trimmed-mean[:beta]         coordinate trimmed mean, default beta 0.1
//	median                      coordinate median
//	krum[:f]                    Krum with Byzantine budget f, default 1
//	fedopt[:momentum[:inner]]   server momentum (default 0.9) over an inner
//	                            rule (default fedavg)
//
// Robust rules buffer the round and cannot compose with the sharded fold, so
// any spec other than fedavg rejects shards > 1. Every robust selection is
// wrapped in NewBuffered so it satisfies the StreamAggregator seam.
func ParseAggregator(spec string, shards int) (Aggregator, error) {
	name, arg, _ := strings.Cut(spec, ":")
	if name == "" || name == "fedavg" {
		if arg != "" {
			return nil, fmt.Errorf("fed: aggregator %q takes no argument", spec)
		}
		return NewShardedFedAvg(shards), nil
	}
	if shards > 1 {
		return nil, fmt.Errorf("fed: robust aggregator %q does not compose with -shards (the buffered round cannot be split into linear per-shard folds)", spec)
	}
	switch name {
	case "trimmed-mean":
		beta := 0.1
		if arg != "" {
			var err error
			if beta, err = strconv.ParseFloat(arg, 64); err != nil {
				return nil, fmt.Errorf("fed: bad trimmed-mean beta %q: %v", arg, err)
			}
		}
		if beta < 0 || beta >= 0.5 {
			return nil, fmt.Errorf("fed: trimmed-mean beta %g out of [0, 0.5)", beta)
		}
		return NewBuffered(NewTrimmedMeanFedAvg(beta)), nil
	case "median":
		if arg != "" {
			return nil, fmt.Errorf("fed: aggregator %q takes no argument", spec)
		}
		return NewBuffered(&CoordinateMedianFedAvg{}), nil
	case "krum":
		f := 1
		if arg != "" {
			var err error
			if f, err = strconv.Atoi(arg); err != nil {
				return nil, fmt.Errorf("fed: bad krum f %q: %v", arg, err)
			}
		}
		if f < 0 {
			return nil, fmt.Errorf("fed: krum f %d must be non-negative", f)
		}
		return NewBuffered(NewKrumFedAvg(f)), nil
	case "fedopt":
		momentum := 0.9
		innerSpec := "fedavg"
		if arg != "" {
			mStr, rest, _ := strings.Cut(arg, ":")
			var err error
			if momentum, err = strconv.ParseFloat(mStr, 64); err != nil {
				return nil, fmt.Errorf("fed: bad fedopt momentum %q: %v", mStr, err)
			}
			if rest != "" {
				innerSpec = rest
			}
		}
		if momentum < 0 || momentum >= 1 {
			return nil, fmt.Errorf("fed: fedopt momentum %g out of [0, 1)", momentum)
		}
		if strings.HasPrefix(innerSpec, "fedopt") {
			return nil, fmt.Errorf("fed: fedopt cannot nest fedopt")
		}
		inner, err := ParseAggregator(innerSpec, 1)
		if err != nil {
			return nil, err
		}
		// The inner rule arrives either bare (fedavg → SparseFedAvg) or
		// already wrapped in a buffer; unwrap so the round is buffered once,
		// at the outermost layer.
		if ba, ok := inner.(*BufferedAggregator); ok {
			inner = ba.inner
		}
		return NewBuffered(NewFedOptServer(momentum, inner)), nil
	default:
		return nil, fmt.Errorf("fed: unknown aggregator %q (fedavg, trimmed-mean[:beta], median, krum[:f], fedopt[:momentum[:inner]])", spec)
	}
}
