// Btmz regenerates Figure 12: the NAS BT-MZ multi-zone benchmark with
// and without AMPI thread-migration load balancing, across the
// paper's problem classes and rank/PE configurations.
//
// Usage: btmz [-steps 20] [-lb greedy] [-coll tree|flat|topo] [-agg off|on|N:B]
//
//	[-steal off|on] [-chunks N] [-overlap] [-reduce N]
//
// -overlap makes the halo exchange split-phase (receives posted and
// halos sent before the solve, completed after it) and pipelines the
// residual reduction through Iallreduce — communication hides under
// compute. -coll topo builds the collective spanning trees along the
// torus/PE-group hierarchy instead of rank order and reports the
// logical hops the tree edges crossed.
//
// With -mode ult|event the zone step runs as a continuation Program
// on the chosen flow backend instead of the legacy thread job: one
// zone per rank on the skewed class (-class, default Z4K), reported
// with and without the LB gate. Event mode is the configuration that
// scales past 10^5 zones, moving 57-byte records instead of stacks.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/harness"
	"migflow/internal/loadbalance"
	"migflow/internal/npb"
	"migflow/internal/trace"
)

func main() {
	steps := flag.Int("steps", 20, "solver timesteps")
	lbName := flag.String("lb", "greedy", "load balancer: greedy | refine | rotate | commaware | hier")
	showTrace := flag.Bool("trace", false, "print per-PE utilization traces for B.64,8PE")
	collName := flag.String("coll", "tree", "collective algorithm: tree | flat | topo")
	overlap := flag.Bool("overlap", false, "split-phase halo exchange: communication overlaps the solve")
	reduceEvery := flag.Int("reduce", 0, "residual-proxy Allreduce every N steps (0 = never; pipelined with -overlap)")
	aggSpec := flag.String("agg", "off", "boundary-exchange aggregation: off | on | maxPayloads:maxBytes (e.g. 16:8192)")
	stealSpec := flag.String("steal", "off", "idle-cycle work stealing: off (deterministic pump) | on (parallel runner)")
	chunks := flag.Int("chunks", 0, "split each rank's per-step solve into N yieldable slices (steal points); 0 keeps one slice")
	mode := flag.String("mode", "", "program-mode flow backend: ult | event (empty = legacy thread job)")
	className := flag.String("class", "Z4K", "problem class for -mode runs: A | B | SP-A | LU-A | Z4K")
	npes := flag.Int("npes", 8, "PE count for -mode runs")
	flag.Parse()

	coll, err := parseColl(*collName)
	if err != nil {
		log.Fatal(err)
	}

	if *mode != "" {
		if err := programReport(*mode, *className, *steps, *lbName, *npes, coll, *overlap, *reduceEvery); err != nil {
			log.Fatal(err)
		}
		return
	}
	aggregate, pol, err := parseAgg(*aggSpec)
	if err != nil {
		log.Fatal(err)
	}
	steal, err := parseSteal(*stealSpec)
	if err != nil {
		log.Fatal(err)
	}

	if *showTrace {
		traceReport(*steps, *lbName, coll, aggregate, pol)
		return
	}
	cfg := harness.Fig12Config{
		Coll: coll, Aggregate: aggregate, AggPolicy: pol,
		Steal: steal, WorkChunks: *chunks,
		Overlap: *overlap, ReduceEvery: *reduceEvery,
	}
	if *lbName != "greedy" {
		strat, err := loadbalance.ByName(*lbName)
		if err != nil {
			log.Fatal(err)
		}
		cfg.LB = strat
	}
	if _, err := harness.Figure12With(os.Stdout, *steps, cfg); err != nil {
		log.Fatal(err)
	}
}

// programReport runs the one-zone-per-rank program-mode study: the
// graded class without LB, then with the chosen strategy's gate.
func programReport(mode, className string, steps int, lbName string, npes int, coll ampi.CollAlgo, overlap bool, reduceEvery int) error {
	class, err := npb.ClassByName(className)
	if err != nil {
		return err
	}
	strat, err := loadbalance.ByName(lbName)
	if err != nil {
		return err
	}
	base := npb.Params{
		Class: class, NProcs: class.NumZones(), NPEs: npes,
		Steps: steps, Mode: mode,
		Collectives: coll, Overlap: overlap, ReduceEvery: reduceEvery,
	}
	before, err := npb.Run(base)
	if err != nil {
		return err
	}
	with := base
	with.LB = strat
	after, err := npb.Run(with)
	if err != nil {
		return err
	}
	variant := ""
	if overlap {
		variant = ", split-phase overlap"
	}
	fmt.Printf("%s — %d zone-ranks on %d PEs, %d steps%s\n", with.Label(), base.NProcs, npes, steps, variant)
	fmt.Printf("  no LB:            %10.2f ms  (imbalance %.3f)\n", before.TimeNs/1e6, before.Imbalance)
	fmt.Printf("  with %-10s   %10.2f ms  (imbalance %.3f, moved %d ranks, %d B migrated)\n",
		strat.Name()+" LB:", after.TimeNs/1e6, after.Imbalance, after.MovedRanks, after.MigratedBytes)
	if after.TopoHops > 0 || before.TopoHops > 0 {
		fmt.Printf("  collective tree hops: %d (noLB) / %d (LB)\n", before.TopoHops, after.TopoHops)
	}
	return nil
}

func parseSteal(spec string) (bool, error) {
	switch spec {
	case "", "off":
		return false, nil
	case "on":
		return true, nil
	}
	return false, fmt.Errorf("btmz: bad -steal %q (want off or on)", spec)
}

func parseColl(name string) (ampi.CollAlgo, error) {
	switch name {
	case "tree":
		return ampi.CollTree, nil
	case "flat":
		return ampi.CollFlat, nil
	case "topo":
		return ampi.CollTopoTree, nil
	}
	return 0, fmt.Errorf("btmz: unknown -coll %q (want tree, flat, or topo)", name)
}

// parseAgg reads "off", "on" (default policy), or an explicit
// "maxPayloads:maxBytes" flush policy.
func parseAgg(spec string) (bool, comm.AggPolicy, error) {
	switch spec {
	case "", "off":
		return false, comm.AggPolicy{}, nil
	case "on":
		return true, comm.AggPolicy{}, nil
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return false, comm.AggPolicy{}, fmt.Errorf("btmz: bad -agg %q (want off, on, or maxPayloads:maxBytes)", spec)
	}
	n, err1 := strconv.Atoi(parts[0])
	b, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || n < 1 || b < 1 {
		return false, comm.AggPolicy{}, fmt.Errorf("btmz: bad -agg %q (want off, on, or maxPayloads:maxBytes)", spec)
	}
	return true, comm.AggPolicy{MaxPayloads: n, MaxBytes: b}, nil
}

// traceReport prints per-PE utilization for the worst Figure 12 case
// with and without the chosen balancer — a Projections-style summary
// from the trace subsystem.
func traceReport(steps int, lbName string, coll ampi.CollAlgo, aggregate bool, pol comm.AggPolicy) {
	strat, err := loadbalance.ByName(lbName)
	if err != nil {
		log.Fatal(err)
	}
	for _, withLB := range []bool{false, true} {
		p := npb.Params{
			Class: npb.ClassB, NProcs: 64, NPEs: 8, Steps: steps, Trace: true,
			Collectives: coll, Aggregate: aggregate, AggPolicy: pol,
		}
		label := "without LB"
		if withLB {
			p.LB = strat
			label = "with " + strat.Name() + " LB"
		}
		r, err := npb.Run(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("B.64,8PE %s — per-PE utilization (busy fraction of span):\n", label)
		for _, st := range trace.Utilization(r.Trace, p.NPEs) {
			bar := strings.Repeat("#", int(st.Fraction()*40))
			fmt.Printf("  PE %d %6.1f%% %-40s (%d switches)\n", st.PE, st.Fraction()*100, bar, st.Switches)
		}
		c := r.Trace.Counts()
		fmt.Printf("  events: %d switches, %d migrations; modeled time %.1f ms\n\n",
			c[trace.EvSwitchIn], c[trace.EvMigrateOut], r.TimeNs/1e6)
	}
}
