// Full-system example: run a PARSEC-like coherence workload (cores, L1s,
// shared L2 banks, directory, memory controllers) over the NoC under all
// four schemes and report the execution-time penalty of power-gating —
// the paper's headline result (Figures 7-8: Power Punch saves >83% of
// router static energy for <0.4% execution-time penalty) — plus the
// counters probe's blocking analysis behind Figure 9: under ConvOpt a
// packet waits on ~4 gated routers, under Power Punch wakeups are
// punched ahead of the packet and almost entirely hidden.
//
//	go run ./examples/parsec [benchmark]
//
// Benchmarks: blackscholes bodytrack canneal dedup ferret fluidanimate
// swaptions x264 (default: ferret).
package main

import (
	"fmt"
	"log"
	"os"

	"powerpunch"
)

func main() {
	bench := "ferret"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	prof, err := powerpunch.PARSECProfile(bench, 30_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-system run: %s on an 8x8 CMP (64 cores, MESI over 3 VNs)\n\n", bench)

	var baseExec int64
	for _, scheme := range powerpunch.Schemes {
		cfg := powerpunch.DefaultConfig()
		cfg.Scheme = scheme
		cfg.WarmupCycles = 0
		cfg.MeasureCycles = 1 << 40

		probe := powerpunch.NewCountersProbe()
		net, err := powerpunch.NewNetwork(cfg, powerpunch.WithObserver(probe))
		if err != nil {
			log.Fatal(err)
		}
		wl := powerpunch.NewWorkload(prof, net, 7)
		res := net.RunUntil(wl, 10_000_000)
		if !res.Drained {
			log.Fatalf("%v: workload did not complete", scheme)
		}

		exec := wl.ExecutionTime()
		if scheme == powerpunch.NoPG {
			baseExec = exec
		}
		fmt.Printf("%-18s execution %8d cycles (%+.2f%% vs No-PG) | packet latency %6.2f | static saved %5.1f%%\n",
			scheme, exec, 100*(float64(exec)/float64(baseExec)-1),
			res.Summary.AvgLatency, res.StaticSaved*100)
		if wakes := probe.PunchWakes.Wakeups + probe.ConvWakes.Wakeups; wakes > 0 {
			fmt.Printf("%-18s gated routers/packet %.2f | wakeups %d (%d punched ahead) | wakeup cycles hidden from traffic %.1f%%\n",
				"", res.Summary.AvgBlocked, wakes, probe.PunchWakes.Wakeups,
				probe.HiddenFraction()*100)
		}
	}
}
