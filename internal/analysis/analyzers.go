package analysis

// Analyzers builds the tcvet analyzer set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		HotAlloc(),
		NilSafe(),
		NoPanic(),
	}
}
