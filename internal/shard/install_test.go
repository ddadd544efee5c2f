package shard

import (
	"sync"
	"testing"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/core"
)

// TestInstallBeforeStart is the regression for a record that installs
// on a worker whose job has not started yet. NewWorker starts the
// transport, so a peer's record can reach ShardInstall before the
// destination's Run calls Job.Start. Start must then leave the
// installed rank alone: bootstrapping it would re-run its program from
// the root (fresh state, duplicate halos) on top of the reseek that
// resumes it where the source parked it. The test forces that order —
// worker 0 runs and ships one parked rank, and worker 1 starts only
// after the record is installed — and demands bitwise equality with
// the in-process reference, residual Allreduce included.
func TestInstallBeforeStart(t *testing.T) {
	cfg := ampi.JacobiConfig{
		Mode: ampi.ModeEvent, Ranks: 32, Iters: 8, PEs: 4,
		HaloBytes: 8, WorkNs: 1000, ReduceEvery: 2, BlockPlacement: true,
	}
	ref, err := RunJacobiReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabs := pairFabrics(t, "unix")
	var ws [2]*Worker
	var sinks [2]*cellSink
	for i := range ws {
		sinks[i] = &cellSink{}
		c := cfg
		c.Observe = sinks[i].observe
		w, err := NewWorker(i, 2, c.PEs, fabs[i], func(m *core.Machine) (*ampi.Job, error) {
			return ampi.NewJacobiOn(m, c)
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ws[0].Run()
	}()
	// Worker 1 has not started, so worker 0's boundary ranks park at
	// their halo Recv; ship the first one that does.
	if moved := ws[0].MigrateRanks(1, 1); moved != 1 {
		t.Fatalf("moved %d ranks, want 1", moved)
	}
	deadline := time.Now().Add(30 * time.Second)
	for ws[1].installs.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("record never installed on worker 1")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		ws[1].Run()
	}()

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded run hung after an install before Start")
	}
	var reps [2]*Report
	for i, w := range ws {
		sinks[i].mu.Lock()
		cells := append([]RankCell(nil), sinks[i].cells...)
		sinks[i].mu.Unlock()
		reps[i] = w.report(cells)
		if err := w.Close(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	merged, err := MergeReports(reps[:], cfg.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, ref, merged, cfg.Ranks)
}
