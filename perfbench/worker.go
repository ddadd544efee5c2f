package main

// The benchmark's own shard worker app, built from the public Worker
// API (NewWorker, Run, MigrateRanks, Close) so each worker-side layer
// is timed at its boundary from outside the program.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/shard"
)

const workerApp = "perfbench-jacobi"

func init() { shard.RegisterApp(workerApp, runWorkerApp) }

// workerSpec is the payload every worker receives.
type workerSpec struct {
	Cfg     ampi.JacobiConfig
	Migrate int // ranks worker 0 ships to worker 1 mid-run
	Traced  bool
}

// workerResult is one worker's RESULT. Stamps are wall-clock Unix ns.
type workerResult struct {
	Index       int
	GOMAXPROCS  int
	Net         string // the fabric shard.Run gave this worker (it falls back to unix when shm fails)
	Entered     int64  // app entry: spawn and rendezvous are done
	Built       int64  // NewWorker returned, less the heap measurement in it: set-up is done
	RunStart    int64
	RunEnd      int64
	CloseEnd    int64   // Close returned: the run phase is over
	StealStart  float64 // hostSteal at the end of the build callback (see runWorkerApp)
	StealEnd    float64 // hostSteal at CloseEnd
	Moved       int
	HeapBytes   float64 // live heap the build added
	Digest      digest  // the ranks this worker owned at completion
	PredictedNs float64
	Layer       map[string]float64 `json:",omitempty"`
	Spans       []span             `json:",omitempty"`
}

func decodeWorkers(raws []json.RawMessage) ([]workerResult, error) {
	ws := make([]workerResult, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &ws[i]); err != nil {
			return nil, fmt.Errorf("decoding worker %d result: %w", i, err)
		}
	}
	return ws, nil
}

func runWorkerApp(index, workers int, fab shard.Fabric, payload []byte) (any, error) {
	entered := time.Now()
	var spec workerSpec
	if err := json.Unmarshal(payload, &spec); err != nil {
		return nil, err
	}
	res := &workerResult{Index: index, GOMAXPROCS: runtime.GOMAXPROCS(0), Net: fab.Net, Entered: entered.UnixNano()}
	rec := newRecorder(spec.Traced, index)
	root := rec.add("shard.worker", -1, entered, entered)

	cfg := spec.Cfg
	cells := make([]cellBits, cfg.Ranks)
	cfg.Observe = func(rank int, c ampi.JacobiCell) { cells[rank] = toBits(c) }
	g := rec.begin("bench.gc", root)
	heap0 := liveHeap()
	rec.end(g)

	// The heap, counter and steal baselines are taken inside the build
	// callback, before NewWorker starts the transport: from then on
	// peers' frames are delivered, so NewWorker is followed directly by
	// Run, exactly as in shard's own worker runner. (Work between the
	// two widens a window in which migration records installed before
	// Run's Job.Start leave the job with a wrong Allreduce result.) The
	// steal window therefore opens about 0.15 ms before RunStart, well
	// inside one 10 ms tick of /proc/stat's steal counter.
	var (
		buildStart, buildEnd time.Time
		gcSpan               [2]time.Time
		mem0                 memCounters
		hs                   *heapSampler
	)
	t0 := time.Now()
	w, err := shard.NewWorker(index, workers, cfg.PEs, fab, func(m *core.Machine) (*ampi.Job, error) {
		buildStart = time.Now()
		job, err := ampi.NewJacobiOn(m, cfg)
		buildEnd = time.Now()
		if err != nil {
			return nil, err
		}
		if h := liveHeap(); h > heap0 {
			res.HeapBytes = float64(h - heap0)
		}
		if spec.Traced {
			mem0 = readMem()
			hs = startHeapSampler()
		}
		gcSpan = [2]time.Time{buildEnd, time.Now()}
		res.StealStart = hostSteal()
		return job, nil
	})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	nw := rec.add("shard.newworker", root, t0, t1)
	rec.add("ampi.build", nw, buildStart, buildEnd)
	rec.add("bench.gc", nw, gcSpan[0], gcSpan[1])
	res.Built = t1.UnixNano() - gcSpan[1].Sub(gcSpan[0]).Nanoseconds()

	var wg sync.WaitGroup
	var migStart, migEnd time.Time
	if spec.Migrate > 0 && index == 0 && workers > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			migStart = time.Now()
			res.Moved = w.MigrateRanks(spec.Migrate, 1)
			migEnd = time.Now()
		}()
	}
	rs := time.Now()
	w.Run()
	re := time.Now()
	wg.Wait()
	res.RunStart, res.RunEnd = rs.UnixNano(), re.UnixNano()
	rec.add("shard.run", root, rs, re)
	if !migStart.IsZero() {
		rec.add("shard.migrate", root, migStart, migEnd)
	}
	var mem memCounters
	var peak uint64
	if spec.Traced {
		mem = readMem().sub(mem0)
		peak = hs.finish()
	}

	cs := time.Now()
	if err := w.Close(); err != nil {
		return nil, err
	}
	ce := time.Now()
	res.StealEnd = hostSteal()
	rec.add("shard.close", root, cs, ce)
	res.CloseEnd = ce.UnixNano()

	chk := rec.begin("bench.digest", root)
	for r := 0; r < cfg.Ranks; r++ {
		if w.Job.ShardOwns(r) {
			res.Digest.add(r, w.Job.VT(r), &cells[r])
			res.PredictedNs = max(res.PredictedNs, w.Job.VT(r))
		}
	}
	rec.end(chk)

	if spec.Traced {
		rankSteps := float64(cfg.Ranks * cfg.Iters)
		l := map[string]float64{
			"shard.build_s": (t1.Sub(t0) - gcSpan[1].Sub(gcSpan[0])).Seconds(),
			"ampi.build_s":  buildEnd.Sub(buildStart).Seconds(),
			"shard.close_s": ce.Sub(cs).Seconds(),
		}
		if !migStart.IsZero() {
			l["shard.migrate_s"] = migEnd.Sub(migStart).Seconds()
			l["shard.moved"] = float64(res.Moved)
		}
		addMemLayer(l, mem, peak, rankSteps)
		addMachineLayer(l, w.M, rankSteps, cfg.Ranks)
		ls := w.T.SocketStats()
		l["comm.link.frames_sent"] = float64(ls.FramesSent)
		l["comm.link.bytes_written"] = float64(ls.BytesWritten)
		l["comm.link.parks"] = float64(ls.Parks)
		l["comm.link.wakes"] = float64(ls.Wakes)
		res.Layer = l
		rec.spans[root].End = time.Now().UnixNano()
		res.Spans = rec.list()
	}
	return res, nil
}
