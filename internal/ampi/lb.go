package ampi

import (
	"fmt"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
)

// Migrate is MPI_Migrate: a collective load-balancing point. Every
// rank must call it. The runtime measures each rank's CPU time since
// the previous Migrate, runs the strategy once per epoch, and each
// rank then migrates to its assigned PE (threads move with isomalloc
// + swap-global, so the "application" code above this call never
// changes — the §4.5 configuration). It returns the number of ranks
// the plan moved.
func (r *Rank) Migrate(strategy loadbalance.Strategy) (int, error) {
	if strategy == nil {
		return 0, fmt.Errorf("ampi: Migrate: nil strategy")
	}
	// Everyone must have finished the epoch's work before loads are
	// read.
	if err := r.Barrier(); err != nil {
		return 0, err
	}
	epoch := r.epoch
	r.epoch++
	plan := r.job.planForEpoch(epoch, strategy)
	moved := 0
	for _, to := range plan {
		_ = to
		moved++
	}
	if dest, ok := plan[uint64(r.th.ID())]; ok && dest != r.PE() {
		r.ctx.MigrateTo(dest)
	}
	// Re-synchronize so no rank races ahead while others are still
	// in flight, then reset the load measurements for the next epoch.
	if err := r.Barrier(); err != nil {
		return 0, err
	}
	r.th.ResetCPUTime()
	return moved, nil
}

// planForEpoch computes (once per epoch) the strategy's plan from the
// measured per-rank loads. The load database is exactly what the
// paper's runtime gathers: thread id, current PE, consumed CPU time.
// The measurement walk is a single pass (one LoadSample per thread)
// into a pooled buffer, so an LB step allocates no database.
func (j *Job) planForEpoch(epoch uint64, strategy loadbalance.Strategy) loadbalance.Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	if p, ok := j.lbPlans[epoch]; ok {
		return p
	}
	buf := loadbalance.AcquireItems()
	*buf = j.collectLoads(*buf)
	p := strategy.Plan(*buf, j.m.NumPEs())
	loadbalance.ReleaseItems(buf)
	j.lbPlans[epoch] = p
	return p
}

// collectLoads appends every rank's (id, PE, load) sample to buf — the
// single-pass measurement walk shared by the MPI_Migrate and
// runtime-driven balancing paths.
func (j *Job) collectLoads(buf []loadbalance.Item) []loadbalance.Item {
	for _, rk := range j.ranks {
		pe, load := rk.th.LoadSample()
		buf = append(buf, loadbalance.Item{ID: uint64(rk.th.ID()), PE: pe, Load: load})
	}
	return buf
}

// Rebalance is the runtime-driven balancing mode: called from
// *outside* the job at a quiescent point (or by the Migrate gate's
// driver), it plans over the measured loads and moves ranks with
// forced migration — no MPI_Migrate call appears in the application
// at all. One strategy serves both backends: ULT ranks move as
// threads (stack images through the bulk pipeline), event ranks as
// continuation records — the SAME core.Machine.MigrateMany batch
// API, so a mixed runtime could balance both populations with one
// plan. Ranks blocked in Recv keep waiting on their new PE. It
// returns the number of ranks moved.
func (j *Job) Rebalance(strategy loadbalance.Strategy) (int, error) {
	if strategy == nil {
		return 0, fmt.Errorf("ampi: Rebalance: nil strategy")
	}
	if j.ev != nil {
		return j.rebalanceEvent(strategy)
	}
	buf := loadbalance.AcquireItems()
	*buf = j.collectLoads(*buf)
	var plan loadbalance.Plan
	if ca, ok := strategy.(loadbalance.CommAware); ok {
		plan = ca.PlanComm(*buf, j.CommGraph(), j.m.NumPEs())
	} else {
		plan = strategy.Plan(*buf, j.m.NumPEs())
	}
	loadbalance.ReleaseItems(buf)
	var moves []core.Move
	for _, rk := range j.ranks {
		if rk.th.State() == converse.Exited {
			continue
		}
		dest, ok := plan[uint64(rk.th.ID())]
		if !ok || dest == rk.th.Scheduler().PE().Index {
			continue
		}
		moves = append(moves, core.Move{T: rk.th, Dest: dest})
	}
	moved, err := j.m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("ampi: Rebalance: %w", err)
	}
	for _, rk := range j.ranks {
		rk.th.ResetCPUTime()
	}
	return moved, nil
}

// rebalanceEvent is the event-mode LB step: measure every live
// rank's accumulated busy time (under its lock), plan, then commit —
// ONE comm range-table batch (a single epoch bump re-arms the
// deliver-side owner check), the engine's owner words and dispatch
// charges, and one MigrateMany batch of continuation records (57 B
// each with an empty mailbox). The records' PUP round trips and network charges go
// through exactly the machinery a thread move uses, minus eviction,
// vmem imaging, and adoption.
func (j *Job) rebalanceEvent(strategy loadbalance.Strategy) (int, error) {
	e := j.ev
	e.lbMu.Lock()
	defer e.lbMu.Unlock()
	if e.store() == nil {
		return 0, nil // job already completed
	}
	buf := loadbalance.AcquireItems()
	*buf = e.collectEventLoads(*buf)
	plan := strategy.Plan(*buf, j.m.NumPEs())
	loadbalance.ReleaseItems(buf)
	var moves []core.Move
	var rmoves []comm.RangeMove
	// Walk ranks in order (plan map iteration is randomized) so the
	// batch — and everything downstream of it — is deterministic.
	for r := 0; r < e.size; r++ {
		dest, ok := plan[uint64(e.idOf(r))]
		if !ok {
			continue
		}
		src := e.peOf(r)
		if dest == src {
			continue
		}
		rmoves = append(rmoves, comm.RangeMove{Index: r, To: dest})
		moves = append(moves, core.Move{R: eventRecord{e, r}, Src: src, Dest: dest})
	}
	moved, err := e.applyMoves(moves, rmoves)
	e.resetLoads()
	return moved, err
}

// CommGraph returns the measured application traffic between ranks
// as edges keyed by thread id — the input to communication-aware
// balancing.
func (j *Job) CommGraph() []loadbalance.Edge {
	j.mu.Lock()
	defer j.mu.Unlock()
	edges := make([]loadbalance.Edge, 0, len(j.traffic))
	for pair, bytes := range j.traffic {
		edges = append(edges, loadbalance.Edge{
			A:     uint64(j.ranks[pair[0]].th.ID()),
			B:     uint64(j.ranks[pair[1]].th.ID()),
			Bytes: bytes,
		})
	}
	return edges
}

// LoadDatabase returns the current measured loads (for harness
// reporting). The returned slice is the caller's to keep.
func (j *Job) LoadDatabase() []loadbalance.Item {
	return j.collectLoads(make([]loadbalance.Item, 0, len(j.ranks)))
}

// PELoads sums the measured load per PE.
func (j *Job) PELoads() []float64 {
	buf := loadbalance.AcquireItems()
	*buf = j.collectLoads(*buf)
	loads := loadbalance.PELoads(*buf, j.m.NumPEs(), nil)
	loadbalance.ReleaseItems(buf)
	return loads
}
