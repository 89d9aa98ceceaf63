package analysis

// Analyzers returns every analyzer in the fedlint suite, in the order the
// driver runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FingerprintComplete,
		WireExhaustive,
		AtomicHygiene,
		ExportedGodoc,
		UnusedExported,
	}
}

// DefaultSuite is the repository policy: the shape-activated analyzers
// sweep everything, while godoc coverage and determinism tracing are
// scoped to the packages whose contracts they encode. Scope entries are
// import-path suffixes, so the policy survives module renames.
func DefaultSuite() *Suite {
	return &Suite{
		Analyzers: Analyzers(),
		Scope: map[string][]string{
			// The fold/commit/aggregation paths whose bitwise determinism
			// the runtime suite pins; tracing every package would flag
			// helper CLIs that are allowed to read the clock.
			"determinism": {
				"internal/fed",
				"internal/shard",
				"internal/tensor",
			},
			// Godoc coverage is policy per package, not a code shape. This
			// list is every internal package that has reached full coverage;
			// grow it, never shrink it.
			"exported-godoc": {
				"internal/fed",
				"internal/tensor",
				"internal/shard",
				"internal/checkpoint",
				"internal/stats",
				"internal/metrics",
			},
		},
	}
}
