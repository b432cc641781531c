package lint

// All returns the full analyzer suite in the order uts-vet runs it.
func All() []*Analyzer {
	return []*Analyzer{
		Detcheck,
		Lockcheck,
	}
}
