// Package npb implements a synthetic analog of the NAS Parallel
// Benchmark Multi-Zone BT ("BT-MZ", §4.5): the overall mesh is
// partitioned into zones whose sizes are graded geometrically, so
// zone work varies by more than an order of magnitude — "BT-MZ
// creates the most dramatic load imbalance" in the suite. Zones are
// assigned to AMPI ranks (migratable threads), ranks to PEs
// round-robin; each step every rank solves its zones (modeled work
// proportional to zone points) and exchanges boundary data with its
// neighbour ranks.
//
// Run executes the benchmark with or without AMPI thread migration
// (isomalloc + swap-global, exactly the §4.5 configuration) and
// reports total execution time — the bars of Figure 12.
package npb

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/comm"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/swapglobal"
	"migflow/internal/trace"
)

// Class is a BT-MZ problem class: the zone grid and total work scale.
// Real BT-MZ grades zone sizes so the largest-to-smallest ratio is
// roughly 20; Ratio reproduces that.
type Class struct {
	Name   string
	ZonesX int
	ZonesY int
	// WorkPerPointNs converts zone points to modeled solver time.
	WorkPerPointNs float64
	// Points is the total mesh points across all zones.
	Points float64
	// Ratio is largest/smallest zone size.
	Ratio float64
}

// The standard BT-MZ classes used in Figure 12. Zone counts follow
// the NPB spec (A: 4×4, B: 8×8); total points are scaled for
// simulation.
var (
	ClassA = Class{Name: "A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 50, Points: 1 << 20, Ratio: 20}
	ClassB = Class{Name: "B", ZonesX: 8, ZonesY: 8, WorkPerPointNs: 50, Points: 4 << 20, Ratio: 20}

	// SPClassA and LUClassA model the suite's other two benchmarks:
	// SP-MZ and LU-MZ partition their meshes into *equal-size* zones
	// (Ratio 1), so they exhibit little load imbalance — the paper
	// picks BT-MZ precisely because "BT-MZ creates the most dramatic
	// load imbalance" among the three.
	SPClassA = Class{Name: "SP-A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 50, Points: 1 << 20, Ratio: 1}
	LUClassA = Class{Name: "LU-A", ZonesX: 4, ZonesY: 4, WorkPerPointNs: 80, Points: 1 << 20, Ratio: 1}
)

// ClassByName resolves "A", "B", "SP-A" or "LU-A".
func ClassByName(name string) (Class, error) {
	switch name {
	case "A":
		return ClassA, nil
	case "B":
		return ClassB, nil
	case "SP-A":
		return SPClassA, nil
	case "LU-A":
		return LUClassA, nil
	case "Z4K":
		return ClassZ4K, nil
	}
	return Class{}, fmt.Errorf("npb: unknown class %q", name)
}

// ZoneNeighbors returns zone z's 2-D grid neighbours (no wraparound:
// the multi-zone meshes are bounded).
func (c Class) ZoneNeighbors(z int) []int {
	x, y := z%c.ZonesX, z/c.ZonesX
	var out []int
	if x > 0 {
		out = append(out, z-1)
	}
	if x < c.ZonesX-1 {
		out = append(out, z+1)
	}
	if y > 0 {
		out = append(out, z-c.ZonesX)
	}
	if y < c.ZonesY-1 {
		out = append(out, z+c.ZonesX)
	}
	return out
}

// NumZones returns the class's zone count.
func (c Class) NumZones() int { return c.ZonesX * c.ZonesY }

// ZoneSizes returns each zone's point count. Sizes grow
// geometrically along x and y so that size(last)/size(first) ≈
// Ratio, then are normalized to sum to Points.
func (c Class) ZoneSizes() []float64 {
	nx, ny := c.ZonesX, c.ZonesY
	// Per-dimension growth factor: ratio^(1/((nx-1)+(ny-1))).
	steps := float64(nx - 1 + ny - 1)
	g := 1.0
	if steps > 0 {
		g = math.Pow(c.Ratio, 1/steps)
	}
	sizes := make([]float64, 0, nx*ny)
	var sum float64
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			s := math.Pow(g, float64(x+y))
			sizes = append(sizes, s)
			sum += s
		}
	}
	for i := range sizes {
		sizes[i] *= c.Points / sum
	}
	return sizes
}

// AssignZones reproduces BT-MZ's own zone-to-process balancing:
// zones sorted by size descending, each assigned greedily to the
// least-loaded rank. Per-rank balance is good when ranks hold several
// zones and degrades as ranks approach one-zone granularity — which,
// combined with AMPI's block rank-to-PE mapping, produces the
// "dramatic variation in execution times before load balancing"
// across B.16/B.32/B.64 that Figure 12 shows.
func AssignZones(sizes []float64, nranks int) [][]int {
	idx := make([]int, len(sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if sizes[idx[a]] != sizes[idx[b]] {
			return sizes[idx[a]] > sizes[idx[b]]
		}
		return idx[a] < idx[b]
	})
	loads := make([]float64, nranks)
	out := make([][]int, nranks)
	for _, z := range idx {
		best := 0
		for r := 1; r < nranks; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		loads[best] += sizes[z]
		out[best] = append(out[best], z)
	}
	return out
}

// Params configures one Figure 12 case, e.g. {ClassA, 8, 4} is
// "A.8,4PE".
type Params struct {
	Class  Class
	NProcs int // AMPI ranks
	NPEs   int // physical processors
	Steps  int // solver timesteps
	// Mode selects the execution path: "" is the legacy thread job
	// (NewJob rank bodies, byte-identical to prior releases);
	// ampi.ModeULT and ampi.ModeEvent run the same zone step as a
	// continuation Program on the respective flow backend. Program
	// mode is what reaches 10^5+ zones: each zone-rank is then a
	// continuation record instead of a stack. Incompatible with
	// Steal/Aggregate/Trace.
	Mode string
	// LB, when non-nil, triggers MPI_Migrate with this strategy after
	// the warm-up step.
	LB loadbalance.Strategy
	// HaloBytes per neighbour exchange.
	HaloBytes int
	// Trace enables Projections-style event logging; the log lands in
	// Result.Trace.
	Trace bool
	// Collectives selects the AMPI collective topology (tree by
	// default; CollFlat for A/B; CollTopoTree follows Topo).
	Collectives ampi.CollAlgo
	// Topo is the torus/PE-group shape collective trees can exploit:
	// when set, every collective tree edge is charged per-hop cost and
	// counted in Result.TopoHops (ampi.Topology docs).
	Topo ampi.Topology
	// Overlap makes the halo exchange split-phase: receives are
	// posted and halos sent before the solve, and the exchange
	// completes (Waitall) after it — so exchange latency hides under
	// solver work, and the per-step modeled time becomes
	// max(solve, exchange) instead of solve + exchange. The residual
	// reduction (ReduceEvery) pipelines the same way: each reduction
	// starts after its step's exchange and is collected a reduce
	// period later.
	Overlap bool
	// ReduceEvery joins a "max" residual-proxy Allreduce every k
	// steps (0 = never) — blocking by default, pipelined
	// (Iallreduce + deferred Wait) with Overlap.
	ReduceEvery int
	// Aggregate routes the boundary exchange through comm streaming
	// aggregation: each rank's halos coalesce per destination PE, so
	// the modeled per-step exchange pays one Alpha per (rank, dest-PE)
	// envelope instead of one per message. The solver (busy) component
	// of TimeNs is unaffected.
	Aggregate bool
	// AggPolicy tunes the coalescing buffers (zero value = defaults).
	AggPolicy comm.AggPolicy
	// Steal runs the job in the wall-clock parallel driver with
	// idle-cycle work stealing enabled: idle PEs pull ready ranks off
	// loaded neighbours, so solver work lands where the free cycles
	// are. Off (the default) keeps the deterministic
	// RunUntilQuiescent driver and bit-stable figures.
	Steal bool
	// WorkChunks splits each step's solve into this many Work+Yield
	// slices (default 1 = one indivisible solve). Chunking models the
	// solver's directional sweeps and is what gives the stealer
	// re-placement points mid-step.
	WorkChunks int
	// SpinScale is the steal-mode execution rate: modeled solver
	// nanoseconds per wall-clock nanosecond of actual spinning (default
	// DefaultSpinScale). Stealing is driven by real idleness, so in
	// steal mode each work slice occupies the PE's scheduler goroutine
	// for slice/SpinScale of wall time — that is what makes a PE
	// holding 10x the modeled work actually finish last, and its ready
	// ranks actually available to idle thieves. Ignored unless Steal.
	SpinScale float64
}

// DefaultSpinScale compresses modeled solver time 50:1 into wall
// time for steal-mode runs.
const DefaultSpinScale = 50

// Label renders the paper's case naming ("A.8,4PE"), suffixed with
// the flow mode for program-mode runs ("Z4K.4096,8PE/event").
func (p Params) Label() string {
	l := fmt.Sprintf("%s.%d,%dPE", p.Class.Name, p.NProcs, p.NPEs)
	if p.Mode != "" {
		l += "/" + p.Mode
	}
	return l
}

// Result is one benchmark execution.
type Result struct {
	Params Params
	// TimeNs is the modeled parallel execution time: per step, the
	// maximum over PEs of the solver work that actually ran there
	// (reflecting where each rank was at that moment, i.e. the
	// migrations), plus halo-exchange latency, plus the one-time
	// migration transfer cost.
	TimeNs float64
	// PredictedNs is the program-mode virtual-time makespan (max rank
	// VT) — placement-invariant, so it is bit-identical across modes
	// and across LB decisions (zero in legacy mode, which has no VT).
	PredictedNs   float64
	CommNs        float64   // halo-exchange component of TimeNs
	PELoads       []float64 // measured per-PE work (current placement)
	Imbalance     float64   // max/avg of PELoads
	Migrations    uint64
	MigratedBytes uint64
	MovedRanks    int
	// Envelopes/AggPayloads report the streaming-aggregation traffic
	// (zero unless Params.Aggregate).
	Envelopes   uint64
	AggPayloads uint64
	// Steals reports the work-stealing counters (zero unless
	// Params.Steal).
	Steals core.StealStats
	// TopoHops counts the logical torus hops collective tree edges
	// crossed (zero unless Params.Topo is set).
	TopoHops uint64
	// Trace is the event log when Params.Trace was set (nil
	// otherwise).
	Trace *trace.Log
}

// Run executes the benchmark on a fresh machine.
func Run(p Params) (*Result, error) {
	if p.NProcs < 1 || p.NPEs < 1 {
		return nil, fmt.Errorf("npb: bad params %+v", p)
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
	if p.ReduceEvery < 0 {
		return nil, fmt.Errorf("npb: ReduceEvery %d must be ≥ 0", p.ReduceEvery)
	}
	if p.Mode != "" {
		return runProgram(p)
	}
	layout := swapglobal.NewLayout()
	layout.Declare("step", 8) // the solver's "global" iteration counter
	layout.Declare("residual", 8)
	m, err := core.NewMachine(core.Config{NumPEs: p.NPEs, Globals: layout, Steal: p.Steal})
	if err != nil {
		return nil, err
	}
	var tlog *trace.Log
	if p.Trace {
		tlog = m.EnableTracing()
	}
	sizes := p.Class.ZoneSizes()
	zones := AssignZones(sizes, p.NProcs)
	// Zone ownership and per-rank halo pattern: one message per
	// zone-neighbour pair that crosses ranks (both directions).
	owner := make([]int, p.Class.NumZones())
	for r, zs := range zones {
		for _, z := range zs {
			owner[z] = r
		}
	}
	sendTo := make([][]int, p.NProcs) // rank → destination ranks, one per crossing pair
	expectIn := make([]int, p.NProcs) // rank → inbound halo messages per step
	for r, zs := range zones {
		for _, z := range zs {
			for _, nb := range p.Class.ZoneNeighbors(z) {
				if owner[nb] != r {
					sendTo[r] = append(sendTo[r], owner[nb])
					expectIn[owner[nb]]++
				}
			}
		}
	}

	spinScale := p.SpinScale
	if spinScale <= 0 {
		spinScale = DefaultSpinScale
	}
	var mu sync.Mutex
	moved := 0
	// stepBusy[step][pe] accumulates solver work as it actually ran:
	// the per-step parallel time is its max over PEs. stepComm[step]
	// is the critical-path exchange cost: the worst rank's outbound
	// halo traffic, per-message or per dest-PE envelope.
	stepBusy := make([][]float64, p.Steps)
	for i := range stepBusy {
		stepBusy[i] = make([]float64, p.NPEs)
	}
	stepComm := make([]float64, p.Steps)
	lat := m.Network().Latency()
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	var job *ampi.Job // captured: rank bodies consult placement via PEOf
	opts := ampi.Options{
		Globals:        layout,
		BlockPlacement: true,
		Collectives:    p.Collectives,
		Topo:           p.Topo,
		Aggregate:      p.Aggregate,
		AggPolicy:      p.AggPolicy,
	}
	job, err = ampi.NewJob(m, p.NProcs, opts, func(r *ampi.Rank) {
		// NOTE: the GOT is per-PE (part of the process image), so it
		// must be re-fetched after any potential migration.
		got := func() *swapglobal.GOT { return r.Ctx().GlobalsGOT() }
		var myWork float64
		for _, z := range zones[r.Rank()] {
			myWork += sizes[z] * p.Class.WorkPerPointNs
		}
		halo := make([]byte, p.HaloBytes)
		// Pipelined residual reduction (Overlap + ReduceEvery): the
		// reduction started at the previous reduce step is collected
		// just before the next one starts, so its tree latency hides
		// under the intervening solves.
		var ar *ampi.CollRequest
		for step := 0; step < p.Steps; step++ {
			// Privatized global: each rank tracks its own step
			// counter, unchanged application style under AMPI.
			if err := got().StoreUint64("step", uint64(step)); err != nil {
				fail(err)
				return
			}
			// Solve the rank's zones. With WorkChunks > 1 the solve is
			// sliced into directional sweeps separated by yields — each
			// yield is a point where an idle PE may steal this rank, so
			// the remaining sweeps run (and are charged) where the free
			// cycles are. chunks == 1 charges the whole solve at once,
			// byte-identical to the unsliced model.
			solve := func() {
				chunks := p.WorkChunks
				if chunks < 1 {
					chunks = 1
				}
				slice := myWork / float64(chunks)
				for k := 0; k < chunks; k++ {
					r.Work(slice)
					if p.Steal {
						// Occupy the PE for wall time proportional to the
						// modeled slice, so real idleness tracks modeled
						// load and thieves pull from genuinely busy PEs.
						spinWall(slice / spinScale)
					}
					mu.Lock()
					stepBusy[step][r.PE()] += slice
					mu.Unlock()
					if chunks > 1 {
						r.Yield()
					}
				}
			}
			// Boundary exchange along the real zone adjacency: one
			// halo message per crossing zone-neighbour pair, sent
			// nonblocking, then receive the expected inbound count.
			// With Overlap the receives are posted and the halos sent
			// BEFORE the solve, and the exchange completes after it —
			// the MPI-3 split-phase pattern the request objects exist
			// for.
			var reqs []*ampi.Request
			if p.Overlap {
				for i := 0; i < expectIn[r.Rank()]; i++ {
					q, err := r.Irecv(ampi.AnySource, 1)
					if err != nil {
						fail(err)
						return
					}
					reqs = append(reqs, q)
				}
				for _, dest := range sendTo[r.Rank()] {
					if _, err := r.Isend(dest, 1, halo); err != nil {
						fail(err)
						return
					}
				}
			}
			solve()
			if !p.Overlap {
				for _, dest := range sendTo[r.Rank()] {
					if _, err := r.Isend(dest, 1, halo); err != nil {
						fail(err)
						return
					}
				}
			}
			// Critical-path exchange model for this step: the worst
			// rank's outbound halo cost. Aggregation coalesces one
			// envelope per destination PE under the current placement
			// (stable during the exchange — migration happens only at
			// the step-0 barrier below).
			var commCost float64
			if p.Aggregate {
				perPE := make(map[int]int)
				for _, dest := range sendTo[r.Rank()] {
					perPE[job.PEOf(dest)] += p.HaloBytes
				}
				for _, bytes := range perPE {
					commCost += lat.Cost(bytes)
				}
			} else {
				commCost = float64(len(sendTo[r.Rank()])) * lat.Cost(p.HaloBytes)
			}
			mu.Lock()
			if commCost > stepComm[step] {
				stepComm[step] = commCost
			}
			mu.Unlock()
			if p.Overlap {
				if err := r.Waitall(reqs); err != nil {
					fail(err)
					return
				}
			} else {
				for i := 0; i < expectIn[r.Rank()]; i++ {
					if _, _, err := r.Recv(ampi.AnySource, 1); err != nil {
						fail(err)
						return
					}
				}
			}
			// Residual-proxy reduction every ReduceEvery steps:
			// blocking, or started now and collected a period later
			// under Overlap.
			if p.ReduceEvery > 0 && (step+1)%p.ReduceEvery == 0 {
				if p.Overlap {
					if ar != nil {
						if err := ar.Wait(); err != nil {
							fail(err)
							return
						}
					}
					q, err := r.Iallreduce("max", myWork)
					if err != nil {
						fail(err)
						return
					}
					ar = q
				} else if _, err := r.Allreduce("max", myWork); err != nil {
					fail(err)
					return
				}
			}
			// After the first (measurement) step, rebalance.
			if step == 0 && p.LB != nil {
				n, err := r.Migrate(p.LB)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				if n > moved {
					moved = n
				}
				mu.Unlock()
			}
			if v, err := got().LoadUint64("step"); err != nil || v != uint64(step) {
				fail(fmt.Errorf("rank %d: privatized step = %d/%v, want %d", r.Rank(), v, err, step))
				return
			}
		}
		// Collect the reduction the last reduce step left in flight.
		if ar != nil {
			if err := ar.Wait(); err != nil {
				fail(err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if p.Steal {
		// Wall-clock parallel driver: one goroutine per PE, idle PEs
		// steal ready ranks before blocking on their wake gates.
		job.Start()
		m.RunParallel(job.Done)
	} else {
		job.Run()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !job.Done() {
		return nil, fmt.Errorf("npb: job did not complete (deadlock?)")
	}
	migs, migBytes := m.MigrationStats()
	var total, commTotal float64
	for step, busy := range stepBusy {
		var max float64
		for _, b := range busy {
			if b > max {
				max = b
			}
		}
		if p.Overlap {
			// Split-phase exchange: the halos fly while the solve
			// runs, so a step costs whichever is longer, not the sum.
			total += math.Max(max, stepComm[step])
		} else {
			total += max + stepComm[step]
		}
		commTotal += stepComm[step]
	}
	// Migration transfers cross the network once, spread over PEs.
	if migs > 0 {
		total += lat.Cost(int(migBytes)) / float64(p.NPEs)
	}
	// Per-PE measured work under the current (post-LB if any)
	// placement: CPU time since the last Migrate reset.
	loads := job.PELoads()
	stats := m.Network().Snapshot()
	res := &Result{
		Params:        p,
		TimeNs:        total,
		CommNs:        commTotal,
		PELoads:       loads,
		Imbalance:     loadbalance.Imbalance(loads),
		Migrations:    migs,
		MigratedBytes: migBytes,
		MovedRanks:    moved,
		Envelopes:     stats.Envelopes,
		AggPayloads:   stats.AggPayloads,
		Steals:        m.StealStats(),
		TopoHops:      m.Network().TopoHops(),
		Trace:         tlog,
	}
	return res, nil
}

// spinWall occupies the calling goroutine for ns wall-clock
// nanoseconds — the steal-mode stand-in for actually executing a
// solver sweep. It yields the processor each iteration so that on a
// host with few OS threads the other PEs' schedulers (and woken
// thieves) still interleave with a long-grinding victim, as they
// would on real per-PE processors.
func spinWall(ns float64) {
	d := time.Duration(ns)
	if d <= 0 {
		return
	}
	for t0 := time.Now(); time.Since(t0) < d; {
		runtime.Gosched()
	}
}

// Cases returns the Figure 12 case list.
func Cases(steps int, lb loadbalance.Strategy) []Params {
	mk := func(c Class, nprocs, npes int) Params {
		return Params{Class: c, NProcs: nprocs, NPEs: npes, Steps: steps, LB: lb}
	}
	return []Params{
		mk(ClassA, 8, 4),
		mk(ClassA, 16, 8),
		mk(ClassB, 16, 8),
		mk(ClassB, 32, 8),
		mk(ClassB, 64, 8),
	}
}
