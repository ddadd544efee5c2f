// Flowbench regenerates Figures 4-8: context-switch time versus the
// number of flows for processes, kernel threads, user-level (Cth)
// threads, migratable AMPI threads and event-driven objects, on any
// emulated platform.
//
// -mode additionally runs the AMPI Jacobi workload with the selected
// rank backend (mirroring `bigsim -mode`):
//
//	ult    every MPI rank is a migratable user-level thread (default
//	       AMPI behaviour)
//	event  every rank is a continuation record dispatched inline by
//	       its simulating PE — no stack, no goroutine
//	both   run each PE count through both backends and print the
//	       ULT-vs-event comparison columns
//
// Usage:
//
//	flowbench [-platform linux-x86] [-rounds 3] [-max 8192]
//	flowbench -all   # all five paper platforms (Figures 4-8)
//	flowbench -mode both [-ranks 4096] [-iters 8] [-jpes 1,2,4,8] [-migrate 4]
//
// -migrate N inserts one collective LB gate after Jacobi iteration N
// (with a deterministic work skew so the balancer has something to
// fix): ULT ranks migrate as threads, event ranks as 57-byte
// continuation records.
//
// -overlap switches the Jacobi runs to the split-phase schedule
// (halos and the pipelined residual Iallreduce fly under the
// relaxation work) and additionally prints the BT-MZ overlap A/B and
// the rank-order-vs-topology spanning-tree hop comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"migflow/internal/ampi"
	"migflow/internal/harness"
)

func main() {
	plat := flag.String("platform", "linux-x86", "platform profile (see internal/platform)")
	all := flag.Bool("all", false, "run the five Figure 4-8 platforms")
	rounds := flag.Int("rounds", 3, "yield rounds per measurement")
	max := flag.Int("max", 8192, "largest flow count")
	mode := flag.String("mode", "", "also run the AMPI Jacobi workload: ult, event, or both")
	ranks := flag.Int("ranks", 4096, "AMPI Jacobi rank count (with -mode)")
	iters := flag.Int("iters", 8, "AMPI Jacobi iterations (with -mode)")
	jpes := flag.String("jpes", "1,2,4,8", "comma-separated simulating PE counts (with -mode)")
	migrateAt := flag.Int("migrate", 0, "insert one mid-run LB gate after this Jacobi iteration (with -mode; 0 = never)")
	overlap := flag.Bool("overlap", false, "split-phase overlap: nonblocking collectives hide exchange latency; prints the BT-MZ overlap and topo-tree studies")
	flag.Parse()

	// Validate the workload flags BEFORE the (long) figure runs and
	// before any rank store is allocated: a typoed -mode used to
	// surface only after minutes of switch-curve measurement.
	switch *mode {
	case "", ampi.ModeULT, ampi.ModeEvent, "both":
	default:
		log.Fatalf("bad -mode %q: want ult, event, or both", *mode)
	}
	if *migrateAt < 0 || *migrateAt > *iters {
		log.Fatalf("bad -migrate %d: want 0 (never) to -iters (%d)", *migrateAt, *iters)
	}
	var peCounts []int
	if *mode != "" {
		for _, s := range strings.Split(*jpes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				log.Fatalf("bad -jpes entry %q", s)
			}
			peCounts = append(peCounts, n)
		}
	}

	var counts []int
	for n := 2; n <= *max; n *= 2 {
		counts = append(counts, n)
	}
	platforms := []string{*plat}
	if *all {
		platforms = []string{"linux-x86", "mac-g5", "sun-solaris9", "ibm-sp", "alpha-es45"}
	}
	for i, p := range platforms {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== Figure %d ==\n", 4+i)
		if _, err := harness.FigureSwitchCurves(os.Stdout, p, counts, *rounds); err != nil {
			log.Fatal(err)
		}
	}

	if *mode != "" {
		fmt.Println("\n== AMPI Jacobi flows ==")
		switch *mode {
		case ampi.ModeULT, ampi.ModeEvent:
			if err := harness.JacobiBackend(os.Stdout, *ranks, *iters, peCounts, *mode, *migrateAt, *overlap); err != nil {
				log.Fatal(err)
			}
		case "both":
			if _, err := harness.JacobiMode(os.Stdout, *ranks, *iters, peCounts, *migrateAt, *overlap); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *overlap {
		fmt.Println("\n== Split-phase overlap and topology-aware trees ==")
		if _, err := harness.OverlapStudy(os.Stdout, 12, 8); err != nil {
			log.Fatal(err)
		}
		if err := harness.TopoTreeStudy(os.Stdout, 256, 16); err != nil {
			log.Fatal(err)
		}
	}
}
