package embedding

// LiveMappings reports how many anonymous regions newDenseMapped mapped
// that are not yet unmapped.
func LiveMappings() int64 { return liveMappings.Load() }
