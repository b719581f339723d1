package experiments

import (
	"fmt"
	"strings"

	"powerpunch/internal/config"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/pg"
	"powerpunch/internal/traffic"
)

// HeatmapResult holds per-router gated-time fractions for one scheme.
type HeatmapResult struct {
	Scheme    config.Scheme
	Width     int
	Height    int
	GatedFrac []float64 // per router, fraction of measured cycles gated
}

// RunHeatmap measures each router's gated-time fraction under a hotspot
// workload (traffic concentrated toward one node), visualizing how
// Power Punch keeps exactly the used paths awake while the rest of the
// chip sleeps — the spatial intuition behind the paper's energy
// results.
func RunHeatmap(scheme config.Scheme, o SyntheticOptions) (*HeatmapResult, error) {
	cfg := config.Default().WithScheme(scheme)
	cfg.WarmupCycles = o.Fidelity.warmupCycles()
	cfg.MeasureCycles = o.Fidelity.measureCycles()
	cfg = o.Overrides.apply(cfg)
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	// Hotspot one hop in from the origin corner; on single-row fabrics
	// (rings) the Y offset collapses to the only row there is.
	hotC := mesh.Coord{X: 1, Y: 1}
	if hotC.Y >= cfg.Height {
		hotC.Y = cfg.Height - 1
	}
	hot := net.M.NodeAt(hotC)
	drv := traffic.NewSynthetic(traffic.Hotspot{Node: hot, Frac: 0.7}, 0.02, o.Seed)

	res := &HeatmapResult{Scheme: scheme, Width: cfg.Width, Height: cfg.Height,
		GatedFrac: make([]float64, net.M.NumNodes())}
	gated := make([]int64, net.M.NumNodes())
	var cycles int64

	warmEnd := cfg.WarmupCycles
	measEnd := warmEnd + cfg.MeasureCycles
	for net.Now() < measEnd {
		drv.Tick(net, net.Now())
		net.Step()
		if net.Now() > warmEnd {
			cycles++
			for i, r := range net.Routers {
				if r.Ctrl.State() == pg.Gated {
					gated[i]++
				}
			}
		}
	}
	for i := range gated {
		res.GatedFrac[i] = float64(gated[i]) / float64(cycles)
	}
	return res, nil
}

// FormatHeatmap renders the gated-fraction map as ASCII art: '#' routers
// are essentially always on, '.' routers essentially always gated.
func FormatHeatmap(h *HeatmapResult) string {
	glyph := func(f float64) byte {
		switch {
		case f < 0.2:
			return '#' // on (hot path)
		case f < 0.5:
			return '+'
		case f < 0.8:
			return '-'
		default:
			return '.' // gated (dark silicon)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Gated-time heatmap, %s, hotspot traffic ('#'=mostly on ... '.'=mostly gated):\n", h.Scheme)
	for y := 0; y < h.Height; y++ {
		for x := 0; x < h.Width; x++ {
			b.WriteByte(glyph(h.GatedFrac[y*h.Width+x]))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	var sum float64
	for _, f := range h.GatedFrac {
		sum += f
	}
	fmt.Fprintf(&b, "mean gated fraction: %.1f%%\n", 100*sum/float64(len(h.GatedFrac)))
	return b.String()
}
