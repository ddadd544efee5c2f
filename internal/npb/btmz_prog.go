package npb

// Program-mode BT-MZ: the zone step expressed once as an ampi.Proc
// and interpreted by either flow backend — Params.Mode "ult" runs it
// on migratable threads, "event" on continuation records.
// The step body (solve → halo sends → deterministic specific-source
// receives → optional LB gate) is shared verbatim, so the predicted
// makespan is bit-identical across modes; only the migration
// mechanism differs. This is the configuration that scales the
// paper's Figure 12 study to zone counts (10^5+) where per-zone
// threads stop being affordable and per-zone event ranks do not.

import (
	"fmt"
	"math"
	"sort"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// GradedClass builds a custom zone grid with BT-MZ's geometric size
// grading — the knob the large-scale LB studies turn. ratio 1 models
// SP/LU-MZ's equal zones; ratio 20 matches BT-MZ; larger ratios
// sharpen the imbalance the balancer must fix.
func GradedClass(name string, nx, ny int, points, ratio, workPerPointNs float64) Class {
	return Class{Name: name, ZonesX: nx, ZonesY: ny, WorkPerPointNs: workPerPointNs, Points: points, Ratio: ratio}
}

// ClassZ4K is the skewed 4,096-zone (64×64) study class: one zone
// per rank, graded 20:1, sized so CI-scale runs stay fast.
var ClassZ4K = GradedClass("Z4K", 64, 64, 1<<22, 20, 50)

// btmzTopology is the zone→rank assignment and the per-rank halo
// pattern both Run paths derive from a Params.
type btmzTopology struct {
	sizes    []float64
	zones    [][]int
	myWork   []float64 // modeled solver ns per rank per step
	sendTo   [][]int   // rank → destination ranks, one per crossing pair
	recvFrom [][]int   // rank → source ranks (with multiplicity), sorted
}

func buildTopology(p Params) btmzTopology {
	t := btmzTopology{sizes: p.Class.ZoneSizes()}
	t.zones = AssignZones(t.sizes, p.NProcs)
	owner := make([]int, p.Class.NumZones())
	for r, zs := range t.zones {
		for _, z := range zs {
			owner[z] = r
		}
	}
	t.myWork = make([]float64, p.NProcs)
	t.sendTo = make([][]int, p.NProcs)
	t.recvFrom = make([][]int, p.NProcs)
	for r, zs := range t.zones {
		for _, z := range zs {
			t.myWork[r] += t.sizes[z] * p.Class.WorkPerPointNs
			for _, nb := range p.Class.ZoneNeighbors(z) {
				if owner[nb] != r {
					t.sendTo[r] = append(t.sendTo[r], owner[nb])
					t.recvFrom[owner[nb]] = append(t.recvFrom[owner[nb]], r)
				}
			}
		}
	}
	// Receives name their sources in sorted order: the matching
	// sequence is then a pure function of the topology, not of
	// message arrival races — what makes the makespan reproducible
	// and mode-invariant.
	for r := range t.recvFrom {
		sort.Ints(t.recvFrom[r])
	}
	return t
}

// btmzProgram builds the shared step body. workPE[step][rank]
// records where each rank's solve actually ran; the makespan sums
// are taken in rank order afterwards, so the per-PE totals are a
// pure function of placement — not of the two backends' different
// scheduling (and float-accumulation) orders. The halo-exchange
// critical path is len(sendTo[r])·Cost(HaloBytes),
// placement-independent.
func btmzProgram(p Params, t btmzTopology, workPE [][]int32) ampi.Proc {
	halo := make([]byte, p.HaloBytes)
	// One pipelined residual-reduction site (Overlap + ReduceEvery):
	// the reduce step starts it, the next reduce step (or the
	// epilogue) collects it — at most one outstanding at a time.
	var arStart, arWait ampi.Proc
	if p.Overlap && p.ReduceEvery > 0 {
		arStart, arWait = ampi.Iallreduce("max",
			func(pc *ampi.PC) float64 { return t.myWork[pc.Rank()] }, nil)
	}
	step := func(i int) ampi.Proc {
		return ampi.Call(func(pc *ampi.PC) ampi.Proc {
			r := pc.Rank()
			reduceNow := p.ReduceEvery > 0 && (i+1)%p.ReduceEvery == 0
			var ps []ampi.Proc
			if p.Overlap {
				// Split-phase: halos leave before the solve, so their
				// flight time hides under it; a reduction started last
				// reduce step completes under this solve too.
				ps = append(ps, ampi.Do(func(pc *ampi.PC) {
					for _, dest := range t.sendTo[r] {
						pc.Send(dest, 1, halo)
					}
					pc.Work(t.myWork[r])
					workPE[i][r] = int32(pc.PE())
				}))
				if p.ReduceEvery > 0 && i > 0 && i%p.ReduceEvery == 0 {
					ps = append(ps, arWait)
				}
			} else {
				ps = append(ps, ampi.Do(func(pc *ampi.PC) {
					pc.Work(t.myWork[r])
					workPE[i][r] = int32(pc.PE())
					for _, dest := range t.sendTo[r] {
						pc.Send(dest, 1, halo)
					}
				}))
			}
			for _, src := range t.recvFrom[r] {
				ps = append(ps, ampi.Recv(src, 1, nil))
			}
			if reduceNow {
				if p.Overlap {
					ps = append(ps, arStart)
				} else {
					ps = append(ps, ampi.Allreduce("max",
						func(pc *ampi.PC) float64 { return t.myWork[pc.Rank()] }, nil))
				}
			}
			// After the first (measurement) step, everyone meets at
			// the LB gate — threads move as stacks, event ranks as
			// records, one plan either way.
			if i == 0 && p.LB != nil {
				ps = append(ps, ampi.Migrate(p.LB))
			}
			return ampi.Seq(ps...)
		})
	}
	body := []ampi.Proc{ampi.For(p.Steps, step)}
	if p.Overlap && p.ReduceEvery > 0 && p.Steps%p.ReduceEvery == 0 {
		// The last step started a reduction; collect it.
		body = append(body, arWait)
	}
	return ampi.Seq(body...)
}

// ProgramJob builds the program-mode BT-MZ job on an existing machine
// without running it — the entry point sharded workers use, where the
// machine carries a local PE range and a socket transport. The same
// deterministic topology and program tree are built in every process,
// which is what makes the per-rank VT of a 2-process run bitwise
// equal to the in-process one. Defaults mirror Run's.
func ProgramJob(m *core.Machine, p Params) (*ampi.Job, error) {
	if p.Mode == "" {
		return nil, fmt.Errorf("npb: ProgramJob needs a program Mode")
	}
	if p.NProcs < 1 || p.NPEs < 1 || p.NPEs != m.NumPEs() {
		return nil, fmt.Errorf("npb: bad params for machine with %d PEs: %+v", m.NumPEs(), p)
	}
	if p.NProcs > p.Class.NumZones() {
		return nil, fmt.Errorf("npb: %d ranks exceed %d zones", p.NProcs, p.Class.NumZones())
	}
	if p.Steps == 0 {
		p.Steps = 10
	}
	if p.HaloBytes == 0 {
		p.HaloBytes = 4096
	}
	t := buildTopology(p)
	workPE := make([][]int32, p.Steps)
	for i := range workPE {
		workPE[i] = make([]int32, p.NProcs)
	}
	return ampi.NewProgram(m, p.NProcs, ampi.Options{
		Mode:           p.Mode,
		BlockPlacement: true,
		Collectives:    p.Collectives,
		Topo:           p.Topo,
	}, btmzProgram(p, t, workPE))
}

// runProgram is the Params.Mode != "" execution path.
func runProgram(p Params) (*Result, error) {
	if p.Mode != ampi.ModeULT && p.Mode != ampi.ModeEvent {
		return nil, fmt.Errorf("npb: unknown mode %q (want %q or %q)", p.Mode, ampi.ModeULT, ampi.ModeEvent)
	}
	if p.Steal || p.Aggregate || p.Trace {
		return nil, fmt.Errorf("npb: program mode does not support Steal/Aggregate/Trace")
	}
	t := buildTopology(p)
	m, err := core.NewMachine(core.Config{NumPEs: p.NPEs})
	if err != nil {
		return nil, err
	}
	workPE := make([][]int32, p.Steps)
	for i := range workPE {
		workPE[i] = make([]int32, p.NProcs)
	}
	job, err := ampi.NewProgram(m, p.NProcs, ampi.Options{
		Mode:           p.Mode,
		BlockPlacement: true,
		Collectives:    p.Collectives,
		Topo:           p.Topo,
	}, btmzProgram(p, t, workPE))
	if err != nil {
		return nil, err
	}
	job.Run()
	if !job.Done() {
		return nil, fmt.Errorf("npb: program-mode job did not complete (deadlock?)")
	}
	lat := m.Network().Latency()
	commStep := 0.0
	for r := range t.sendTo {
		if c := float64(len(t.sendTo[r])) * lat.Cost(p.HaloBytes); c > commStep {
			commStep = c
		}
	}
	migs, migBytes := m.MigrationStats()
	var total float64
	busy := make([]float64, p.NPEs)
	for _, pes := range workPE {
		for i := range busy {
			busy[i] = 0
		}
		for r, pe := range pes {
			busy[pe] += t.myWork[r]
		}
		max := 0.0
		for _, b := range busy {
			if b > max {
				max = b
			}
		}
		if p.Overlap {
			// Split-phase steps cost the longer of solve and exchange.
			total += math.Max(max, commStep)
		} else {
			total += max + commStep
		}
	}
	if migs > 0 {
		total += lat.Cost(int(migBytes)) / float64(p.NPEs)
	}
	// Modeled per-PE load under the final placement (one step's
	// solver work) — the Imbalance the balancer left behind.
	loads := make([]float64, p.NPEs)
	for r := range t.myWork {
		loads[job.PEOf(r)] += t.myWork[r]
	}
	return &Result{
		Params:        p,
		TimeNs:        total,
		CommNs:        commStep * float64(p.Steps),
		PredictedNs:   job.PredictedNs(),
		PELoads:       loads,
		Imbalance:     loadbalance.Imbalance(loads),
		Migrations:    migs,
		MigratedBytes: migBytes,
		MovedRanks:    job.LBMoved(),
		TopoHops:      m.Network().TopoHops(),
	}, nil
}
