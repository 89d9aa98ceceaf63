package fed

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestBufferedFedAvgLikeConformance: the rules that ARE weighted means —
// Buffered(TrimmedMean(0)) and FedOpt with zero momentum — must pass the full
// Aggregator conformance suite, including weighted averaging.
func TestBufferedFedAvgLikeConformance(t *testing.T) {
	t.Run("trimmed-mean(0)", func(t *testing.T) {
		testAggregatorConformance(t, func() Aggregator { return NewBuffered(NewTrimmedMeanFedAvg(0)) })
	})
	t.Run("fedopt(0)", func(t *testing.T) {
		testAggregatorConformance(t, func() Aggregator { return NewBuffered(NewFedOptServer(0, &SparseFedAvg{})) })
	})
}

// testRobustConformance is the reduced suite for the rules that deliberately
// ignore client weights (median, Krum) or trim the cohort: empty rounds yield
// nil, a single client is identity, unanimity is preserved exactly, scratch
// is not leaked across rounds, and streaming arrival order does not matter
// (the buffer sorts by client ID).
func testRobustConformance(t *testing.T, newAgg func() Aggregator) {
	t.Helper()
	t.Run("empty round", func(t *testing.T) {
		if got := newAgg().Aggregate(nil); got != nil {
			t.Fatalf("empty round: got %v, want nil", got)
		}
	})
	t.Run("single client is identity", func(t *testing.T) {
		params := []float32{1, -2, 3.5}
		got := newAgg().Aggregate([]*Update{{ClientID: 0, Participating: true, Weight: 17, Params: params}})
		for i := range params {
			if got[i] != params[i] {
				t.Fatalf("single-client aggregate[%d] = %v, want %v", i, got[i], params[i])
			}
		}
	})
	t.Run("unanimity preserved", func(t *testing.T) {
		params := []float32{0.1, -0.2, 0.30000001}
		ups := []*Update{
			{ClientID: 0, Participating: true, Weight: 5, Params: params},
			{ClientID: 1, Participating: true, Weight: 11, Params: params},
			{ClientID: 2, Participating: true, Weight: 2, Params: params},
		}
		got := newAgg().Aggregate(ups)
		for i := range params {
			if got[i] != params[i] {
				t.Fatalf("unanimous aggregate[%d] = %v, want %v", i, got[i], params[i])
			}
		}
	})
	t.Run("scratch reuse does not leak", func(t *testing.T) {
		agg := newAgg()
		first := agg.Aggregate([]*Update{{ClientID: 0, Participating: true, Weight: 1, Params: []float32{1, 1}}})
		if first[0] != 1 {
			t.Fatal("first round wrong")
		}
		second := agg.Aggregate([]*Update{{ClientID: 0, Participating: true, Weight: 1, Params: []float32{9, 9}}})
		if second[0] != 9 {
			t.Fatalf("second round got %v: stale scratch", second[0])
		}
	})
	t.Run("arrival order irrelevant", func(t *testing.T) {
		mk := func(id int, v float32) *Update {
			return &Update{ClientID: id, Participating: true, Weight: float64(id + 1),
				Params: []float32{v, -v, v * 3}}
		}
		asc := []*Update{mk(0, 1), mk(1, 2), mk(2, 4), mk(3, 8), mk(4, 16)}
		shuffled := []*Update{asc[3], asc[0], asc[4], asc[2], asc[1]}
		want := append([]float32(nil), newAgg().Aggregate(asc)...)
		got := newAgg().Aggregate(shuffled)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("shuffled arrival changed bits at %d: %v vs %v", i, got[i], want[i])
			}
		}
	})
}

func TestRobustRulesConformance(t *testing.T) {
	rules := []struct {
		name string
		mk   func() Aggregator
	}{
		{"trimmed-mean(0.25)", func() Aggregator { return NewBuffered(NewTrimmedMeanFedAvg(0.25)) }},
		{"median", func() Aggregator { return NewBuffered(&CoordinateMedianFedAvg{}) }},
		{"krum(1)", func() Aggregator { return NewBuffered(NewKrumFedAvg(1)) }},
		{"fedopt(0.9,median)", func() Aggregator { return NewBuffered(NewFedOptServer(0.9, &CoordinateMedianFedAvg{})) }},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) { testRobustConformance(t, r.mk) })
		if r.mk().Name() == "" {
			t.Fatal("aggregator must be identifiable")
		}
	}
}

// robustTestUpdates builds a mixed dense/sparse cohort large enough to cross
// the per-coordinate kernels' parallel dispatch.
func robustTestUpdates(seed uint64, n, clients int) []*Update {
	rng := tensor.NewRNG(seed)
	var ups []*Update
	for c := 0; c < clients; c++ {
		params := make([]float32, n)
		for i := range params {
			if rng.Float64() < 0.3 {
				params[i] = float32(rng.Norm())
			}
		}
		u := &Update{ClientID: c, Participating: true, Weight: float64(1 + c%4), Params: params}
		if c%3 == 2 {
			u = sparsify(u)
		}
		ups = append(ups, u)
	}
	return ups
}

// TestTrimmedMeanZeroBitwiseMatchesSparseFedAvg is the ISSUE's conformance
// pin: with beta 0 (no trimming) the buffered trimmed mean must reproduce
// SparseFedAvg bit for bit on dense updates — and on the sparse/mixed rounds
// the buffer densifies, since densification preserves values exactly.
func TestTrimmedMeanZeroBitwiseMatchesSparseFedAvg(t *testing.T) {
	const n, clients, rounds = 20_000, 7, 3
	ref := &SparseFedAvg{}
	agg := NewBuffered(NewTrimmedMeanFedAvg(0))
	for r := 0; r < rounds; r++ {
		ups := robustTestUpdates(uint64(300+r), n, clients)
		want := append([]float32(nil), ref.Aggregate(ups)...)
		got := agg.Aggregate(ups)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("round %d coordinate %d: %v, want %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestRobustRulesDeterministicAcrossThreads: every robust rule must produce
// identical bits for every kernel-thread budget — the robust rules keep the
// repo's determinism contract even though they sort per coordinate.
func TestRobustRulesDeterministicAcrossThreads(t *testing.T) {
	const n, clients = 20_000, 9
	rules := []struct {
		name string
		mk   func() Aggregator
	}{
		{"trimmed-mean(0.2)", func() Aggregator { return NewBuffered(NewTrimmedMeanFedAvg(0.2)) }},
		{"median", func() Aggregator { return NewBuffered(&CoordinateMedianFedAvg{}) }},
		{"krum(2)", func() Aggregator { return NewBuffered(NewKrumFedAvg(2)) }},
		{"fedopt(0.9,trimmed-mean)", func() Aggregator {
			return NewBuffered(NewFedOptServer(0.9, NewTrimmedMeanFedAvg(0.2)))
		}},
	}
	for _, r := range rules {
		pinKernelThreads(t, 1)
		// Two rounds per setting so stateful rules (fedopt) are compared on a
		// trajectory, not a single step.
		refAgg := r.mk()
		var wants [][]float32
		for round := 0; round < 2; round++ {
			wants = append(wants, append([]float32(nil), refAgg.Aggregate(robustTestUpdates(uint64(500+round), n, clients))...))
		}
		for _, threads := range []int{4, 16} {
			pinKernelThreads(t, threads)
			agg := r.mk()
			for round := 0; round < 2; round++ {
				got := agg.Aggregate(robustTestUpdates(uint64(500+round), n, clients))
				for i := range wants[round] {
					if math.Float32bits(got[i]) != math.Float32bits(wants[round][i]) {
						t.Fatalf("%s threads=%d round %d coordinate %d: %v, want %v",
							r.name, threads, round, i, got[i], wants[round][i])
					}
				}
			}
		}
	}
}

// TestTrimmedMeanFixture checks the hand-computed arithmetic: 5 clients,
// beta 0.2 → trim 1 each side, weighted mean of the survivors.
func TestTrimmedMeanFixture(t *testing.T) {
	ups := []*Update{
		{ClientID: 0, Participating: true, Weight: 1, Params: []float32{0, 10}},
		{ClientID: 1, Participating: true, Weight: 2, Params: []float32{2, 1}},
		{ClientID: 2, Participating: true, Weight: 3, Params: []float32{4, 2}},
		{ClientID: 3, Participating: true, Weight: 2, Params: []float32{6, 3}},
		{ClientID: 4, Participating: true, Weight: 1, Params: []float32{100, -50}},
	}
	got := NewBuffered(NewTrimmedMeanFedAvg(0.2)).Aggregate(ups)
	// Coordinate 0: sorted {0(w1), 2(w2), 4(w3), 6(w2), 100(w1)}, trim the
	// ends → (2·2 + 4·3 + 6·2)/7 = 28/7 = 4.
	// Coordinate 1: sorted {-50(w1), 1(w2), 2(w3), 3(w2), 10(w1)} →
	// (1·2 + 2·3 + 3·2)/7 = 14/7 = 2.
	want := []float32{4, 2}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Fatalf("trimmed mean[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMedianFixture checks the hand-computed median, odd and even cohorts,
// and that weights are ignored.
func TestMedianFixture(t *testing.T) {
	mk := func(vals ...float32) []*Update {
		var ups []*Update
		for i, v := range vals {
			ups = append(ups, &Update{ClientID: i, Participating: true,
				Weight: float64(100 * (i + 1)), Params: []float32{v}})
		}
		return ups
	}
	agg := NewBuffered(&CoordinateMedianFedAvg{})
	if got := agg.Aggregate(mk(1, 100, 3, 2, 4)); got[0] != 3 {
		t.Fatalf("odd median = %v, want 3", got[0])
	}
	if got := agg.Aggregate(mk(1, 2, 3, 100)); got[0] != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got[0])
	}
}

// TestKrumFixture: four clustered clients and one far outlier, f=1, so the
// neighbour budget k = 5−1−2 = 2. Every clustered client's two nearest
// neighbours are in the cluster, the outlier's are far away — Krum must
// return one of the cluster's vectors verbatim, specifically the one closest
// to its two nearest peers.
func TestKrumFixture(t *testing.T) {
	ups := []*Update{
		{ClientID: 0, Participating: true, Weight: 1, Params: []float32{0.0, 0.0}},
		{ClientID: 1, Participating: true, Weight: 1, Params: []float32{0.1, 0.0}},
		{ClientID: 2, Participating: true, Weight: 1, Params: []float32{0.0, 0.1}},
		{ClientID: 3, Participating: true, Weight: 1, Params: []float32{0.1, 0.1}},
		{ClientID: 4, Participating: true, Weight: 1, Params: []float32{50, -50}},
	}
	got := NewBuffered(NewKrumFedAvg(1)).Aggregate(ups)
	// All four cluster members tie at score 0.01+0.01 = 0.02; the lowest
	// client ID (0) wins the tie-break.
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("krum selected %v, want the cluster vector {0, 0}", got)
	}
}

// TestKrumNeighbourBudgetClampsToOne pins Krum where m − f − 2 ≤ 0: the
// neighbour budget clamps to k = 1, so each update scores its nearest
// neighbour's distance, and a tie goes to the lowest position. On the line
// {0, 6, 5, 20, 40, 60} updates 1 and 2 tie at distance 1 and update 1 wins;
// k = 0 would score every update 0 and pick update 0, k = 2 would pick update
// 2. Two updates always tie, so update 0 wins whatever f is.
func TestKrumNeighbourBudgetClampsToOne(t *testing.T) {
	mk := func(vals ...float32) []*Update {
		var ups []*Update
		for i, v := range vals {
			ups = append(ups, &Update{ClientID: i, Participating: true, Weight: 1, Params: []float32{v}})
		}
		return ups
	}
	line := []float32{0, 6, 5, 20, 40, 60}
	for _, c := range []struct{ m, f, want int }{
		{2, 0, 0}, {2, 1, 0}, {2, 5, 0}, // m = 2
		{3, 1, 1}, {4, 2, 1}, {5, 3, 1}, {6, 4, 1}, // m = f + 2
		{3, 5, 1}, // m − f − 2 < 0
	} {
		ups := mk(line[:c.m]...)
		if c.m == 2 {
			ups = mk(3, -4)
		}
		got := NewBuffered(NewKrumFedAvg(c.f)).Aggregate(ups)
		if want := ups[c.want].Params[0]; got[0] != want {
			t.Fatalf("m=%d f=%d: krum selected %v, want update %d (%v)", c.m, c.f, got[0], c.want, want)
		}
	}
}

// TestTrimmedMeanLargestBetaKeepsSurvivors: at the largest β the
// constructor admits, β·m rounds below m/2 for every cohort size, so
// floor(β·m) leaves one survivor (odd m) or two (even m) — on the values
// 1…m both average to (m+1)/2 exactly. TrimmedMeanCols panics on a trim
// with no survivor, so the rule needs no clamp of its own.
func TestTrimmedMeanLargestBetaKeepsSurvivors(t *testing.T) {
	agg := NewBuffered(NewTrimmedMeanFedAvg(math.Nextafter(0.5, 0)))
	for m := 1; m <= 64; m++ {
		var ups []*Update
		for i := 0; i < m; i++ {
			ups = append(ups, &Update{ClientID: i, Participating: true, Weight: 1, Params: []float32{float32(m - i)}})
		}
		if got, want := agg.Aggregate(ups)[0], float32(m+1)/2; got != want {
			t.Fatalf("m=%d: trimmed mean %v, want the middle value %v", m, got, want)
		}
	}
}

// TestFedOptMomentumFixture checks the velocity recurrence by hand: with
// momentum 0.5 and a single client the inner aggregate is the client's
// vector; v accumulates (g − x_prev) and the global overshoots toward g.
func TestFedOptMomentumFixture(t *testing.T) {
	agg := NewBuffered(NewFedOptServer(0.5, &SparseFedAvg{}))
	step := func(v float32) []float32 {
		return agg.Aggregate([]*Update{{ClientID: 0, Participating: true, Weight: 1, Params: []float32{v}}})
	}
	if got := step(1); got[0] != 1 { // first round seeds x = g
		t.Fatalf("round 1 = %v, want 1", got[0])
	}
	if got := step(2); got[0] != 2 { // v = 0 + (2−1) = 1; x = 1 + 1 = 2
		t.Fatalf("round 2 = %v, want 2", got[0])
	}
	if got := step(2); got[0] != 2.5 { // v = 0.5·1 + (2−2) = 0.5; x = 2.5
		t.Fatalf("round 3 = %v, want 2.5", got[0])
	}
}

// TestBufferedAccumulateCopies pins the StreamAggregator aliasing contract:
// an update handed to Accumulate may alias transport decode buffers, so the
// buffer must deep-copy — mutating the caller's slices after Accumulate must
// not change the round's result.
func TestBufferedAccumulateCopies(t *testing.T) {
	agg := NewBuffered(&CoordinateMedianFedAvg{})
	params := []float32{1, 2, 3}
	sv := &tensor.SparseVec{N: 3, Indices: []int32{0, 2}, Values: []float32{5, 7}}
	agg.BeginRound()
	agg.Accumulate(&Update{ClientID: 0, Participating: true, Weight: 1, Params: params})
	agg.Accumulate(&Update{ClientID: 1, Participating: true, Weight: 1, Sparse: sv})
	agg.Accumulate(&Update{ClientID: 2, Participating: true, Weight: 1, Params: []float32{9, 9, 9}})
	params[0], params[1], params[2] = -100, -100, -100
	sv.Values[0], sv.Values[1] = -100, -100
	got := agg.FinishRound()
	// Columns: {1,5,9} → 5; {2,0,9} → 2; {3,7,9} → 7.
	want := []float32{5, 2, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aggregate[%d] = %v, want %v (decode-buffer aliasing leaked)", i, got[i], want[i])
		}
	}
}

// TestBufferedZeroAllocSteadyState: once the slot pool has seen the cohort,
// buffered rounds must not allocate on the accumulate path (FinishRound's
// sort may allocate its closure bookkeeping, so only accumulation is pinned).
func TestBufferedZeroAllocSteadyState(t *testing.T) {
	pinKernelThreads(t, 1)
	agg := NewBuffered(&CoordinateMedianFedAvg{})
	ups := robustTestUpdates(77, 4096, 6)
	agg.Aggregate(ups)
	agg.Aggregate(ups)
	allocs := testing.AllocsPerRun(50, func() {
		agg.BeginRound()
		for _, u := range ups {
			agg.Accumulate(u)
		}
	})
	agg.FinishRound()
	if allocs != 0 {
		t.Fatalf("steady-state buffered accumulation allocates %v per round", allocs)
	}
}

// TestParseAggregator covers the spec grammar: defaults, arguments, error
// cases, and the shards conflict.
func TestParseAggregator(t *testing.T) {
	good := []struct {
		spec, name string
	}{
		{"", "SparseFedAvg"},
		{"fedavg", "SparseFedAvg"},
		{"trimmed-mean", "Buffered(TrimmedMeanFedAvg(0.1))"},
		{"trimmed-mean:0.25", "Buffered(TrimmedMeanFedAvg(0.25))"},
		{"median", "Buffered(CoordinateMedianFedAvg)"},
		{"krum", "Buffered(KrumFedAvg(1))"},
		{"krum:3", "Buffered(KrumFedAvg(3))"},
		{"fedopt", "Buffered(FedOpt(0.9,SparseFedAvg))"},
		{"fedopt:0.5", "Buffered(FedOpt(0.5,SparseFedAvg))"},
		{"fedopt:0.5:median", "Buffered(FedOpt(0.5,CoordinateMedianFedAvg))"},
		{"fedopt:0.5:trimmed-mean:0.2", "Buffered(FedOpt(0.5,TrimmedMeanFedAvg(0.2)))"},
	}
	for _, g := range good {
		agg, err := ParseAggregator(g.spec, 1)
		if err != nil {
			t.Fatalf("ParseAggregator(%q): %v", g.spec, err)
		}
		if agg.Name() != g.name {
			t.Fatalf("ParseAggregator(%q).Name() = %q, want %q", g.spec, agg.Name(), g.name)
		}
		if _, ok := agg.(StreamAggregator); !ok {
			t.Fatalf("ParseAggregator(%q) is not a StreamAggregator (the async scheduler needs one)", g.spec)
		}
	}
	if agg, err := ParseAggregator("fedavg", 4); err != nil || agg.Name() != "ShardedFedAvg(4)" {
		t.Fatalf("fedavg with shards: %v / %v", agg, err)
	}
	bad := []string{
		"nope", "trimmed-mean:0.5", "trimmed-mean:-1", "trimmed-mean:x",
		"krum:-1", "krum:x", "fedopt:1", "fedopt:-0.1", "fedopt:x",
		"fedopt:0.5:fedopt", "fedavg:3", "median:1",
	}
	for _, spec := range bad {
		if _, err := ParseAggregator(spec, 1); err == nil {
			t.Fatalf("ParseAggregator(%q) accepted a bad spec", spec)
		}
	}
	if _, err := ParseAggregator("median", 4); err == nil {
		t.Fatal("robust rule with shards > 1 must be rejected")
	}
}

// TestRobustServerConfig: NewServer builds the configured robust rule from
// ServerConfig.Robust, and the job fingerprint separates rules.
func TestRobustServerConfig(t *testing.T) {
	sl, cl := Loopback()
	defer cl.Close()
	s := NewServer(ServerConfig{NumClients: 1, NumTasks: 1, Rounds: 1, Robust: "median"},
		nil, []Transport{sl})
	if got := s.stream.Name(); got != "Buffered(CoordinateMedianFedAvg)" {
		t.Fatalf("ServerConfig.Robust built %q", got)
	}
	// A rule that only reduces whole rounds is buffered behind the streaming
	// shape both schedulers drive — the async one included.
	s = NewServer(ServerConfig{NumClients: 1, NumTasks: 1, Rounds: 1, Scheduler: SchedulerAsync},
		&WeightedFedAvg{}, []Transport{sl})
	if got := s.stream.Name(); got != "Buffered(WeightedFedAvg)" {
		t.Fatalf("a batch-only aggregator was installed as %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad Robust spec must panic NewServer")
		}
	}()
	cfgs := []Config{
		{}, {Robust: "fedavg"}, {Robust: "median"}, {Robust: "krum:1"}, {RejectNonFinite: true},
	}
	fps := map[uint64]string{}
	fps[cfgs[0].Fingerprint()] = "default"
	if fp := cfgs[1].Fingerprint(); fps[fp] != "default" {
		t.Fatal("explicit fedavg must fingerprint like the default")
	}
	for _, cfg := range cfgs[2:] {
		fp := cfg.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("fingerprint collision: %+v vs %s", cfg, prev)
		}
		fps[fp] = fmt.Sprintf("%+v", cfg)
	}
	sl2, cl2 := Loopback()
	defer cl2.Close()
	NewServer(ServerConfig{NumClients: 1, NumTasks: 1, Rounds: 1, Robust: "bogus"},
		nil, []Transport{sl2})
}
