package core

import (
	"powerpunch/internal/config"
	"powerpunch/internal/topo"
)

// defaultTestConfig returns the paper's default configuration for area
// tests without creating an import cycle in test helpers.
func defaultTestConfig() config.Config { return config.Default() }

// meshRF returns XY routing over a w x h mesh.
func meshRF(w, h int) *topo.RoutingFunction {
	rf, err := topo.Build("mesh", w, h)
	if err != nil {
		panic(err)
	}
	return rf
}
