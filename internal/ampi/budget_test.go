package ampi

import (
	"runtime"
	"testing"
	"unsafe"
)

// Allocation and footprint budgets for event ranks. A rank is its
// slot plus its frame stack: the interpreter keeps continuations as
// data, so the steady state allocates only what a step sends.

// TestEventJacobiAllocBudget runs event-mode Jacobi (4,096 ranks × 8
// iterations, residual Allreduce every 4) and bounds heap allocations
// per rank-step. What remains is each send's comm.Message and payload
// (halos every step, reduction edges every fourth) plus per-rank
// set-up amortized over the run.
func TestEventJacobiAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const ranks, iters, budget = 4096, 8, 6.0
	cfg := JacobiConfig{Ranks: ranks, Iters: iters, PEs: 8, Mode: ModeEvent, ReduceEvery: 4, BlockPlacement: true}
	run := func() float64 {
		_, job, err := NewJacobi(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		job.Run()
		runtime.ReadMemStats(&after)
		if !job.Done() {
			t.Fatal("job did not complete")
		}
		return float64(after.Mallocs-before.Mallocs) / (ranks * iters)
	}
	run() // warm pools and lazily built machine state
	if got := run(); got > budget {
		t.Fatalf("%.2f heap allocations per rank-step, budget %.0f", got, budget)
	} else {
		t.Logf("%.2f heap allocations per rank-step (budget %.0f)", got, budget)
	}
}

// TestEventRankFootprint pins the size of an event rank's slot — the
// build-time per-rank footprint of an event job's contiguous store.
func TestEventRankFootprint(t *testing.T) {
	const limit = 328
	if got := unsafe.Sizeof(eventRank{}); got > limit {
		t.Fatalf("eventRank is %d B, limit %d B", got, limit)
	} else {
		t.Logf("eventRank is %d B (limit %d B)", got, limit)
	}
}
