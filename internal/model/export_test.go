package model

import "sort"

// State is the state arena: the parameters, then every BatchNorm2D's running
// statistics.
func (m *Model) State() []float32 { return m.state }

// Names lists the registered architectures, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
