package model

// State is the state arena: the parameters, then every BatchNorm2D's running
// statistics.
func (m *Model) State() []float32 { return m.state }
