// Command powerpunch regenerates the paper's tables and figures.
//
// Usage:
//
//	powerpunch -fig table1|table2|fig7|fig8|fig9|fig10|fig11|golden|fig12|fig13|scale|area|ablation|heatmap|all
//	           [-full] [-seed N] [-bench name,name] [-hops N] [-csv dir]
//	           [-scheme name,name]
//
// -fig accepts a comma-separated list; the full-system figures (fig7-11)
// share one set of simulations per invocation.
//
// By default experiments run at Quick fidelity (reduced windows /
// instruction budgets, minutes of wall time for `all`); -full uses the
// paper-quality settings.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"powerpunch"
	"powerpunch/internal/config"
	"powerpunch/internal/experiments"
)

func main() {
	var p params
	fig := flag.String("fig", "", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids")
	full := flag.Bool("full", false, "paper-quality fidelity (slower)")
	flag.Int64Var(&p.seed, "seed", 1, "simulation seed")
	bench := flag.String("bench", "", "comma-separated benchmark subset for fig7-fig11")
	flag.IntVar(&p.hops, "hops", 3, "punch hop count for fig13")
	flag.StringVar(&p.csvDir, "csv", "", "also write plot-ready CSV files into this directory (fig7-fig13)")
	flag.BoolVar(&p.ov.Checks, "checks", false, "run with the cycle-level invariant engine enabled (slower; violations abort with a replayable artifact)")
	flag.BoolVar(&p.ov.FullTick, "fulltick", false, "use the full-walk tick scheduler instead of the active-set scheduler (bit-identical results)")
	flag.BoolVar(&p.observe, "probes", false, "attach the counters probe to full-system runs and report the wakeup exposed/hidden split")
	flag.StringVar(&p.ov.Topology, "topo", "", "fabric for the simulation-backed experiments: mesh|torus|ring (default: the paper's 8x8 mesh; golden and scale reject it)")
	flag.IntVar(&p.ov.Width, "width", 0, "fabric width, used with -topo (default 8)")
	flag.IntVar(&p.ov.Height, "height", 0, "fabric height, used with -topo (default 8; must be 1 for -topo ring)")
	flag.StringVar(&p.ov.PowerPreset, "power-preset", "", "power-model calibration: "+strings.Join(powerpunch.PowerPresets(), "|")+" (default: the paper's "+powerpunch.DefaultPowerPreset+"; the golden baselines are pinned to it, so golden rejects any other)")
	schemeList := flag.String("scheme", "", "comma-separated scheme subset for the scheme-parameterized experiments (fig12, heatmap): "+strings.Join(powerpunch.SchemeNames(), "|")+" (default: each experiment's paper set)")
	flag.Parse()

	if *schemeList != "" {
		for _, name := range strings.Split(*schemeList, ",") {
			s, err := config.SchemeByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "powerpunch: %v\n", err)
				os.Exit(2)
			}
			p.schemes = append(p.schemes, s)
		}
	}

	var err error
	if p.ov, err = resolveOverrides(p.ov); err != nil {
		fmt.Fprintf(os.Stderr, "powerpunch: %v\n", err)
		os.Exit(2)
	}

	if *list || *fig == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		if *fig == "" && !*list {
			os.Exit(2)
		}
		return
	}

	if *full {
		p.fid = experiments.Full
	}
	if *bench != "" {
		p.benches = strings.Split(*bench, ",")
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = nil
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}

	for _, id := range ids {
		start := time.Now()
		out, err := p.run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powerpunch: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// resolveOverrides completes the run-wide flags into experiment
// overrides and validates them. Any of -topo/-width/-height selects a
// fabric; an unset width defaults to 8, an unset height to 8, or to 1
// for -topo ring.
func resolveOverrides(ov experiments.Overrides) (experiments.Overrides, error) {
	if ov.Topology != "" || ov.Width != 0 || ov.Height != 0 {
		if ov.Height == 0 && ov.Topology == "ring" {
			ov.Height = 1
		}
		ov.Width, ov.Height = cmp.Or(ov.Width, 8), cmp.Or(ov.Height, 8)
	}
	return ov, ov.Validate()
}

// writeCSV writes one CSV artifact into dir (no-op when dir is empty).
func writeCSV(dir, name string, fn func(w *os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

// params are one invocation's settings, shared by every experiment
// it runs.
type params struct {
	fid     experiments.Fidelity
	seed    int64
	benches []string
	hops    int
	csvDir  string
	schemes []config.Scheme
	observe bool // -probes: full-system runs report the wakeup exposed/hidden split
	ov      experiments.Overrides

	// fullSystem caches the fig7-fig11 simulations, which they share
	// within one invocation.
	fullSystem []experiments.BenchResult
}

func (p *params) run(id string) (string, error) {
	synthetic := experiments.SyntheticOptions{Fidelity: p.fid, Seed: p.seed, Overrides: p.ov}
	switch id {
	case "table1":
		return experiments.FormatTable1(), nil
	case "table2":
		return experiments.FormatTable2(), nil
	case "fig7", "fig8", "fig9", "fig10", "fig11":
		if p.fullSystem == nil {
			var err error
			if p.fullSystem, err = experiments.RunFullSystem(experiments.FullSystemOptions{
				Fidelity: p.fid, Seed: p.seed, Benchmarks: p.benches, Observe: p.observe, Overrides: p.ov,
			}); err != nil {
				return "", err
			}
		}
		res := p.fullSystem
		if err := writeCSV(p.csvDir, "fullsystem.csv", func(w *os.File) error {
			return experiments.WriteFullSystemCSV(w, res)
		}); err != nil {
			return "", err
		}
		switch id {
		case "fig7":
			return experiments.FormatFig7(res), nil
		case "fig8":
			return experiments.FormatFig8(res), nil
		case "fig9":
			return experiments.FormatFig9(res), nil
		case "fig10":
			return experiments.FormatFig10(res), nil
		default:
			return experiments.FormatFig11(res), nil
		}
	case "golden":
		g, err := experiments.LoadGolden()
		if err != nil {
			return "", err
		}
		o, err := g.Options(p.ov)
		if err != nil {
			return "", err
		}
		res, err := experiments.RunFullSystem(o)
		if err != nil {
			return "", err
		}
		return experiments.FormatGolden(g, res), nil
	case "fig12":
		pts, err := experiments.RunLoadSweep(experiments.LoadSweepOptions{Fidelity: p.fid, Seed: p.seed, Schemes: p.schemes, Overrides: p.ov})
		if err != nil {
			return "", err
		}
		if err := writeCSV(p.csvDir, "loadsweep.csv", func(w *os.File) error {
			return experiments.WriteLoadSweepCSV(w, pts)
		}); err != nil {
			return "", err
		}
		return experiments.FormatFig12(pts, p.schemes), nil
	case "fig13":
		pts, err := experiments.RunSensitivity(experiments.SensitivityOptions{Fidelity: p.fid, Seed: p.seed, PunchHops: p.hops, Overrides: p.ov})
		if err != nil {
			return "", err
		}
		if err := writeCSV(p.csvDir, "sensitivity.csv", func(w *os.File) error {
			return experiments.WriteSensitivityCSV(w, pts)
		}); err != nil {
			return "", err
		}
		return experiments.FormatFig13(pts), nil
	case "heatmap":
		var out string
		hs := p.schemes
		if len(hs) == 0 {
			hs = []config.Scheme{config.ConvOptPG, config.PowerPunchPG}
		}
		for _, s := range hs {
			h, err := experiments.RunHeatmap(s, synthetic)
			if err != nil {
				return "", err
			}
			out += experiments.FormatHeatmap(h) + "\n"
		}
		return out, nil
	case "scale":
		pts, err := experiments.RunScalability(synthetic)
		if err != nil {
			return "", err
		}
		return experiments.FormatScalability(pts), nil
	case "area":
		return experiments.FormatArea(), nil
	case "ablation":
		pts, err := experiments.RunAblation(synthetic)
		if err != nil {
			return "", err
		}
		return experiments.FormatAblation(pts), nil
	default:
		return "", fmt.Errorf("unknown experiment %q (use -list)", id)
	}
}
