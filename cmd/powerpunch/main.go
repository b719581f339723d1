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
	fig := flag.String("fig", "", "experiment id (see -list)")
	list := flag.Bool("list", false, "list experiment ids")
	full := flag.Bool("full", false, "paper-quality fidelity (slower)")
	seed := flag.Int64("seed", 1, "simulation seed")
	bench := flag.String("bench", "", "comma-separated benchmark subset for fig7-fig11")
	hops := flag.Int("hops", 3, "punch hop count for fig13")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory (fig7-fig13)")
	checks := flag.Bool("checks", false, "run with the cycle-level invariant engine enabled (slower; violations abort with a replayable artifact)")
	fullTick := flag.Bool("fulltick", false, "use the full-walk tick scheduler instead of the active-set scheduler (bit-identical results)")
	observe := flag.Bool("probes", false, "attach the counters probe to full-system runs and report the wakeup exposed/hidden split")
	topoName := flag.String("topo", "", "fabric for the simulation-backed experiments: mesh|torus|ring (default: the paper's 8x8 mesh)")
	width := flag.Int("width", 0, "fabric width, used with -topo (default 8)")
	height := flag.Int("height", 0, "fabric height, used with -topo (default 8; must be 1 for -topo ring)")
	powerPreset := flag.String("power-preset", "", "power-model calibration: "+strings.Join(powerpunch.PowerPresets(), "|")+" (default: the paper's "+powerpunch.DefaultPowerPreset+"; the golden baselines are pinned to it)")
	schemeList := flag.String("scheme", "", "comma-separated scheme subset for the scheme-parameterized experiments (fig12, heatmap): "+strings.Join(powerpunch.SchemeNames(), "|")+" (default: each experiment's paper set)")
	flag.Parse()

	var schemes []config.Scheme
	if *schemeList != "" {
		for _, name := range strings.Split(*schemeList, ",") {
			s, err := config.SchemeByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "powerpunch: %v\n", err)
				os.Exit(2)
			}
			schemes = append(schemes, s)
		}
	}

	experiments.EnableChecks = *checks
	experiments.FullTick = *fullTick
	observeFullSystem = *observe

	if *powerPreset != "" {
		if err := experiments.SetPowerPreset(*powerPreset); err != nil {
			fmt.Fprintf(os.Stderr, "powerpunch: %v\n", err)
			os.Exit(2)
		}
	}

	if *topoName != "" || *width != 0 || *height != 0 {
		w, h := *width, *height
		if w == 0 {
			w = 8
		}
		if h == 0 {
			h = 8
			if *topoName == "ring" {
				h = 1
			}
		}
		if err := experiments.SetFabric(*topoName, w, h); err != nil {
			fmt.Fprintf(os.Stderr, "powerpunch: %v\n", err)
			os.Exit(2)
		}
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

	fid := experiments.Quick
	if *full {
		fid = experiments.Full
	}
	var benches []string
	if *bench != "" {
		benches = strings.Split(*bench, ",")
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
		out, err := run(id, fid, *seed, benches, *hops, *csvDir, schemes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powerpunch: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
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

// fullSystemCache avoids re-running the shared fig7-fig11 simulations
// within one `-fig all` invocation.
var fullSystemCache []experiments.BenchResult

// observeFullSystem mirrors the -probes flag: full-system runs attach
// the counters probe, so fig9/fig10 can report the wakeup
// exposed-vs-hidden split alongside the blocking averages.
var observeFullSystem bool

func fullSystem(fid experiments.Fidelity, seed int64, benches []string) ([]experiments.BenchResult, error) {
	if fullSystemCache != nil {
		return fullSystemCache, nil
	}
	res, err := experiments.RunFullSystem(experiments.FullSystemOptions{
		Fidelity: fid, Seed: seed, Benchmarks: benches, Observe: observeFullSystem,
	})
	if err == nil {
		fullSystemCache = res
	}
	return res, err
}

func run(id string, fid experiments.Fidelity, seed int64, benches []string, hops int, csvDir string, schemes []config.Scheme) (string, error) {
	switch id {
	case "table1":
		return experiments.FormatTable1(), nil
	case "table2":
		return experiments.FormatTable2(), nil
	case "fig7", "fig8", "fig9", "fig10", "fig11":
		res, err := fullSystem(fid, seed, benches)
		if err != nil {
			return "", err
		}
		if err := writeCSV(csvDir, "fullsystem.csv", func(w *os.File) error {
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
		res, err := experiments.RunGolden(g)
		if err != nil {
			return "", err
		}
		return experiments.FormatGolden(g, res), nil
	case "fig12":
		pts, err := experiments.RunLoadSweep(experiments.LoadSweepOptions{Fidelity: fid, Seed: seed, Schemes: schemes})
		if err != nil {
			return "", err
		}
		if err := writeCSV(csvDir, "loadsweep.csv", func(w *os.File) error {
			return experiments.WriteLoadSweepCSV(w, pts)
		}); err != nil {
			return "", err
		}
		return experiments.FormatFig12(pts, schemes), nil
	case "fig13":
		pts, err := experiments.RunSensitivity(experiments.SensitivityOptions{Fidelity: fid, Seed: seed, PunchHops: hops})
		if err != nil {
			return "", err
		}
		if err := writeCSV(csvDir, "sensitivity.csv", func(w *os.File) error {
			return experiments.WriteSensitivityCSV(w, pts)
		}); err != nil {
			return "", err
		}
		return experiments.FormatFig13(pts), nil
	case "heatmap":
		var out string
		hs := schemes
		if len(hs) == 0 {
			hs = []config.Scheme{config.ConvOptPG, config.PowerPunchPG}
		}
		for _, s := range hs {
			h, err := experiments.RunHeatmap(s, fid, seed)
			if err != nil {
				return "", err
			}
			out += experiments.FormatHeatmap(h) + "\n"
		}
		return out, nil
	case "scale":
		pts, err := experiments.RunScalability(fid, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatScalability(pts), nil
	case "area":
		return experiments.FormatArea(), nil
	case "ablation":
		pts, err := experiments.RunAblation(fid, seed)
		if err != nil {
			return "", err
		}
		return experiments.FormatAblation(pts), nil
	default:
		return "", fmt.Errorf("unknown experiment %q (use -list)", id)
	}
}
