package main

// The three workloads and the operations the runner process times.
// Every workload runs the event-rank Jacobi program of ampi; they
// differ in which layers carry the cost (see spec.json):
//
//   - jacobi-inproc: one process, Job.RunParallel; interpreter,
//     matching, local Send/Pump and collectives.
//   - shard-stream-shm: 2 worker processes over shm rings with
//     round-robin placement (every halo crosses workers) and a
//     mid-run MigrateRanks; wire codec, rings, termination barrier,
//     record protocol.
//   - lb-rebalance: ranks parked at an LB gate, repeated
//     Job.Rebalance steps over seeded loads; planner, MigrateMany,
//     record PUP, range-table batch.
//
// An operation is one job run (setup excluded from its timed phase),
// or one Rebalance step in lb-rebalance.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"migflow/internal/ampi"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/shard"
)

// params is one run's fully derived configuration. Everything the
// program receives is generated here from the workload name and seed.
type params struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool

	Cfg      ampi.JacobiConfig
	Workers  int    // sharded workloads: worker processes
	Net      string // sharded workloads: fabric
	Migrate  int    // shard-stream-shm: ranks worker 0 ships to worker 1
	Episodes int    // lb-rebalance: independent set-ups per run

	InprocProcs int           // GOMAXPROCS of the runner for in-process work
	OpDeadline  time.Duration // one operation, set-up included
	RefDeadline time.Duration // the untimed in-process reference

	// corruptRef flips a bit of the reference digest (tests only): every
	// operation must then fail its correctness check.
	corruptRef bool
}

func (p params) sharded() bool { return p.Workers > 1 }

// newParams derives a run's configuration. The seed perturbs the
// modeled compute (WorkNs ±2%, WorkSkew ≤ 4%) and, in lb-rebalance,
// every step's load database; sizes stay fixed so runs with different
// seeds are comparable. smoke shrinks every size for the tests.
func newParams(workload string, seed int64, seconds float64, trace, smoke bool) (params, error) {
	rng := rand.New(rand.NewSource(seed))
	p := params{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		InprocProcs: min(2, runtime.NumCPU()),
		Cfg: ampi.JacobiConfig{
			Mode:        ampi.ModeEvent,
			ReduceEvery: 4,
			WorkNs:      980 + 40*rng.Float64(),
			WorkSkew:    0.04 * rng.Float64(),
		},
		RefDeadline: 90 * time.Second,
	}
	scale := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	switch workload {
	case "jacobi-inproc":
		p.Cfg.Ranks, p.Cfg.Iters, p.Cfg.PEs = scale(1<<18, 2048), 4, 8
		p.Cfg.BlockPlacement = true
		p.OpDeadline = 60 * time.Second
	case "shard-stream-shm":
		// Two PEs, one per worker, with round-robin placement: every
		// halo exchange crosses the process boundary.
		p.Cfg.Ranks, p.Cfg.Iters, p.Cfg.PEs = scale(1<<16, 1024), 8, 2
		p.Workers, p.Net, p.Migrate = 2, "shm", scale(8192, 128)
		p.OpDeadline = 60 * time.Second
	case "lb-rebalance":
		p.Cfg.Ranks, p.Cfg.Iters, p.Cfg.PEs = scale(1<<16, 1024), 4, 8
		p.Cfg.BlockPlacement = true
		p.Cfg.MigrateAt = 2
		p.Episodes = 5
		p.OpDeadline = 20 * time.Second
	default:
		return p, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return p, nil
}

// opRecord is what the runner reports for one operation.
type opRecord struct {
	Op     int    `json:"op"`
	Traced bool   `json:"traced"`
	Err    string `json:"err,omitempty"`

	SetupS       float64  `json:"setup_s,omitempty"` // zero when the op included no set-up
	WallS        float64  `json:"wall_s"`            // the timed phase
	StealS       float64  `json:"steal_s"`           // hypervisor steal during it, per vCPU (hostSteal)
	RankSteps    float64  `json:"rank_steps"`        // ranks × iterations (ranks for an LB step)
	BytesPerRank float64  `json:"bytes_per_rank,omitempty"`
	PredictedMs  float64  `json:"predicted_ms"`
	WorkerProcs  int      `json:"worker_gomaxprocs,omitempty"`
	Nets         []string `json:"nets,omitempty"` // sharded: the fabric each worker used

	Layer map[string]float64 `json:"layer,omitempty"` // traced ops: per-layer values
	Spans []span             `json:"spans,omitempty"`
}

// reference is the untimed in-process serial run every operation is
// checked against.
type reference struct {
	D           digest
	PredictedMs float64
}

// runWorkload computes the reference, then repeats operations until
// p.Seconds of measuring have passed. In a traced run every other
// operation is traced, so the traced/untraced difference measures the
// tracing overhead under identical conditions.
func runWorkload(p params, send func(line)) error {
	runtime.GOMAXPROCS(p.InprocProcs)
	send(beginLine(-1, p.RefDeadline))
	t0 := time.Now()
	ref, err := computeReference(p)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	send(line{ReferenceS: time.Since(t0).Seconds()})
	if p.corruptRef {
		ref.D.VT ^= 1
	}
	if p.Workload == "lb-rebalance" {
		return runLB(p, ref, send)
	}
	start := time.Now()
	for op := 0; op < 2 || time.Since(start).Seconds() < p.Seconds; op++ {
		traced := p.Trace && op%2 == 1
		send(beginLine(op, p.OpDeadline))
		var rec opRecord
		if p.sharded() {
			rec = shardOp(p, ref, traced)
		} else {
			rec = inprocOp(p, ref, traced)
		}
		rec.Op, rec.Traced = op, traced
		send(line{Op: &rec})
	}
	return nil
}

func computeReference(p params) (reference, error) {
	cfg := p.Cfg
	cells := make([]cellBits, cfg.Ranks)
	cfg.Observe = func(rank int, c ampi.JacobiCell) { cells[rank] = toBits(c) }
	_, job, err := ampi.NewJacobi(cfg)
	if err != nil {
		return reference{}, err
	}
	var d digest
	if p.Workload == "lb-rebalance" {
		job.Start()
		job.Machine().RunUntilQuiescent()
		if job.Done() {
			return reference{}, errors.New("job finished without parking at the LB gate")
		}
		for r := 0; r < cfg.Ranks; r++ {
			d.add(r, job.VT(r), nil)
		}
	} else {
		job.Run()
		if !job.Done() {
			return reference{}, errors.New("reference job did not complete")
		}
		for r := 0; r < cfg.Ranks; r++ {
			d.add(r, job.VT(r), &cells[r])
		}
	}
	return reference{D: d, PredictedMs: job.PredictedNs() / 1e6}, nil
}

func toBits(c ampi.JacobiCell) cellBits {
	return cellBits{X: math.Float64bits(c.X), Resid: math.Float64bits(c.Resid), Global: math.Float64bits(c.Global)}
}

// checkDigest compares an operation's result with the reference.
func checkDigest(got digest, ref reference, predictedMs float64) error {
	switch {
	case got.Count != ref.D.Count || got.Ranks != ref.D.Ranks:
		return fmt.Errorf("rank set differs from the reference (%d ranks vs %d)", got.Count, ref.D.Count)
	case got.VT != ref.D.VT:
		return fmt.Errorf("virtual-time digest %016x differs from the reference %016x", got.VT, ref.D.VT)
	case got.Cells != ref.D.Cells:
		return fmt.Errorf("cell-state digest %016x differs from the reference %016x", got.Cells, ref.D.Cells)
	case predictedMs != ref.PredictedMs:
		return fmt.Errorf("predicted makespan %v ms differs from the reference %v ms", predictedMs, ref.PredictedMs)
	}
	return nil
}

// inprocOp is one jacobi-inproc operation: boot + build (set-up),
// RunParallel (the timed phase), then the digest check.
func inprocOp(p params, ref reference, traced bool) (r opRecord) {
	cfg := p.Cfg
	rec := newRecorder(traced, -1)
	root := rec.begin("bench.op", -1)
	defer func() { rec.end(root); r.Spans = rec.list() }()

	cells := make([]cellBits, cfg.Ranks)
	cfg.Observe = func(rank int, c ampi.JacobiCell) { cells[rank] = toBits(c) }
	g := rec.begin("bench.gc", root)
	heap0 := liveHeap()
	rec.end(g)

	t0 := time.Now()
	m, err := core.NewMachine(core.Config{NumPEs: cfg.PEs})
	if err != nil {
		r.Err = err.Error()
		return r
	}
	t1 := time.Now()
	job, err := ampi.NewJacobiOn(m, cfg)
	t2 := time.Now()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	rec.add("core.boot", root, t0, t1)
	rec.add("ampi.build", root, t1, t2)
	r.SetupS = t2.Sub(t0).Seconds()

	g = rec.begin("bench.gc", root)
	if h := liveHeap(); h > heap0 {
		r.BytesPerRank = float64(h-heap0) / float64(cfg.Ranks)
	}
	rec.end(g)

	var mem0 memCounters
	var hs *heapSampler
	if traced {
		mem0 = readMem()
		hs = startHeapSampler()
	}
	steal0 := hostSteal()
	t3 := time.Now()
	job.RunParallel()
	t4 := time.Now()
	r.StealS = hostSteal() - steal0
	rec.add("ampi.run", root, t3, t4)
	r.WallS = t4.Sub(t3).Seconds()
	r.RankSteps = float64(cfg.Ranks * cfg.Iters)

	chk := rec.begin("bench.check", root)
	defer rec.end(chk)
	if traced {
		mem := readMem().sub(mem0)
		r.Layer = map[string]float64{
			"ampi.run_s":   r.WallS,
			"ampi.build_s": t2.Sub(t1).Seconds(),
			"core.boot_s":  t1.Sub(t0).Seconds(),
		}
		addMemLayer(r.Layer, mem, hs.finish(), r.RankSteps)
		addMachineLayer(r.Layer, m, r.RankSteps, cfg.Ranks)
	}
	if !job.Done() {
		r.Err = "job did not complete"
		return r
	}
	var d digest
	for rank := 0; rank < cfg.Ranks; rank++ {
		d.add(rank, job.VT(rank), &cells[rank])
	}
	r.PredictedMs = job.PredictedNs() / 1e6
	if err := checkDigest(d, ref, r.PredictedMs); err != nil {
		r.Err = err.Error()
	}
	return r
}

// addMemLayer records the Go runtime's allocation and GC counters for
// a timed phase.
func addMemLayer(l map[string]float64, mem memCounters, heapPeak uint64, rankSteps float64) {
	l["ampi.allocs_per_rank_step"] += float64(mem.Mallocs) / rankSteps
	l["ampi.alloc_bytes_per_rank_step"] += float64(mem.AllocBytes) / rankSteps
	l["gc.cycles"] += float64(mem.GCs)
	l["gc.pause_ms"] += float64(mem.PauseNs) / 1e6
	l["gc.heap_peak_mb"] += float64(heapPeak) / (1 << 20)
}

// addMachineLayer records core's and comm's counters of one machine
// (one process's share of the job).
func addMachineLayer(l map[string]float64, m *core.Machine, rankSteps float64, ranks int) {
	migs, migBytes := m.MigrationStats()
	l["core.idle_polls"] += float64(m.IdlePolls())
	l["core.migrations"] += float64(migs)
	l["core.migrated_bytes_per_rank"] += float64(migBytes) / float64(ranks)
	s := m.Network().Snapshot()
	l["comm.msgs_per_rank_step"] += float64(s.Sent) / rankSteps
	l["comm.forwards"] += float64(s.Forwards)
	l["comm.remote_envelopes_per_rank_step"] += float64(s.RemoteEnvelopes) / rankSteps
	l["comm.remote_envelopes"] += float64(s.RemoteEnvelopes)
	l["comm.remote_payloads"] += float64(s.RemotePayloads)
}

// shardOp is one sharded operation: spawn the workers (shard.Run),
// which rendezvous, build, run, migrate and close; then merge their
// digests and check them against the reference.
func shardOp(p params, ref reference, traced bool) (r opRecord) {
	rec := newRecorder(traced, -1)
	root := rec.begin("bench.op", -1)
	defer func() { rec.end(root); r.Spans = rec.list() }()

	spawn := time.Now()
	proc := rec.begin("shard.proc", root)
	raws, err := shard.Run(shard.ProcSpec{
		App: workerApp, Workers: p.Workers, Net: p.Net,
		Payload: workerSpec{Cfg: p.Cfg, Migrate: p.Migrate, Traced: traced},
	})
	rec.end(proc)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	chk := rec.begin("bench.check", root)
	defer rec.end(chk)
	ws, err := decodeWorkers(raws)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	var (
		d                                digest
		built, entered, runStart, runEnd int64
		stealStart, stealEnd             float64
		minRun, maxRun                   = math.Inf(1), 0.0
		heap                             float64
	)
	for _, w := range ws {
		rec.graft(proc, w.Spans)
		d.merge(w.Digest)
		built, entered = max(built, w.Built), max(entered, w.Entered)
		if w.RunStart > runStart {
			runStart, stealStart = w.RunStart, w.StealStart
		}
		if w.CloseEnd > runEnd {
			runEnd, stealEnd = w.CloseEnd, w.StealEnd
		}
		run := float64(w.RunEnd-w.RunStart) / 1e9
		minRun, maxRun = math.Min(minRun, run), math.Max(maxRun, run)
		heap += w.HeapBytes
		r.WorkerProcs = max(r.WorkerProcs, w.GOMAXPROCS)
		r.Nets = append(r.Nets, w.Net)
		r.PredictedMs = math.Max(r.PredictedMs, w.PredictedNs/1e6)
	}
	r.SetupS = float64(built-spawn.UnixNano()) / 1e9
	r.WallS = float64(runEnd-runStart) / 1e9
	r.StealS = stealEnd - stealStart
	r.RankSteps = float64(p.Cfg.Ranks * p.Cfg.Iters)
	r.BytesPerRank = heap / float64(p.Cfg.Ranks)
	if traced {
		r.Layer = map[string]float64{
			"shard.spawn_s": float64(entered-spawn.UnixNano()) / 1e9,
			"shard.run_s":   r.WallS,
			"ampi.run_s":    r.WallS,
		}
		if minRun > 0 {
			r.Layer["shard.worker_skew"] = maxRun / minRun
		}
		var runNs float64
		for _, w := range ws {
			for k, v := range w.Layer {
				switch k {
				case "shard.build_s", "ampi.build_s", "shard.close_s", "core.boot_s":
					r.Layer[k] = math.Max(r.Layer[k], v)
				default:
					r.Layer[k] += v
				}
			}
			runNs += float64(w.RunEnd - w.RunStart)
		}
		l := r.Layer
		if l["comm.link.frames_sent"] > 0 {
			l["comm.link.ns_per_frame"] = runNs / l["comm.link.frames_sent"]
		}
		if l["comm.remote_envelopes"] > 0 {
			l["comm.payloads_per_envelope"] = l["comm.remote_payloads"] / l["comm.remote_envelopes"]
		}
		if moved := l["shard.moved"]; moved > 0 {
			l["shard.migrate_us_per_rank"] = l["shard.migrate_s"] * 1e6 / moved
		}
	}
	if err := checkShard(p, ws, d, ref, r.PredictedMs); err != nil {
		r.Err = err.Error()
	}
	return r
}

// checkShard verifies a sharded operation: every worker ran on the
// configured fabric (a run that fell back to another one measured a
// different transport), bitwise digests, an exact partition of the
// ranks, and the migration's moved count.
func checkShard(p params, ws []workerResult, d digest, ref reference, predictedMs float64) error {
	for _, w := range ws {
		if w.Net != p.Net {
			return fmt.Errorf("worker %d ran on the %q fabric, want %q", w.Index, w.Net, p.Net)
		}
	}
	if err := checkDigest(d, ref, predictedMs); err != nil {
		return err
	}
	if p.Migrate == 0 {
		return nil
	}
	if got := ws[0].Moved; got != p.Migrate {
		return fmt.Errorf("worker 0 moved %d ranks, want %d", got, p.Migrate)
	}
	initial := 0
	for r := 0; r < p.Cfg.Ranks; r++ {
		if shard.OwnerOf(p.Cfg.PEs, p.Workers, r%p.Cfg.PEs) == 1 {
			initial++
		}
	}
	if got := ws[1].Digest.Count - initial; got != p.Migrate {
		return fmt.Errorf("worker 1 finished %d ranks beyond its own, want %d moved in", got, p.Migrate)
	}
	return nil
}

// seededGreedy is lb-rebalance's strategy: it overwrites the measured
// loads (zeroed by every Rebalance, so only a job's first step would
// see real ones) with loads generated from the workload seed outside
// the timed step, then plans with the real GreedyLB. Only the GreedyLB
// call is timed as the planner; the whole body is timed too, so the
// migration share of a step excludes the load copy as well.
type seededGreedy struct {
	loads  []float64 // rank r's load; the database lists ranks in order
	base   uint64    // item ID of rank 0
	plan   loadbalance.Plan
	planNs int64 // the GreedyLB call
	bodyNs int64 // the whole of Plan
	err    error
	rec    *recorder
	parent int
}

func (s *seededGreedy) Name() string { return "seeded-greedy" }

func (s *seededGreedy) Plan(items []loadbalance.Item, numPEs int) loadbalance.Plan {
	t0 := time.Now()
	if len(items) != len(s.loads) {
		s.err = fmt.Errorf("planner saw %d items, want %d", len(items), len(s.loads))
		return nil
	}
	s.base = items[0].ID
	for i := range items {
		if items[i].ID != s.base+uint64(i) {
			s.err = errors.New("load database is not in rank order")
			return nil
		}
		items[i].Load = s.loads[i]
	}
	t1 := time.Now()
	s.plan = loadbalance.GreedyLB{}.Plan(items, numPEs)
	t2 := time.Now()
	s.planNs, s.bodyNs = t2.Sub(t1).Nanoseconds(), t2.Sub(t0).Nanoseconds()
	s.rec.add("bench.loads", s.parent, t0, t1)
	s.rec.add("loadbalance.plan", s.parent, t1, t2)
	return s.plan
}

// stepLoads fills loads for step k of episode e: log-normal with a
// spread drawn per step, so every step plans over a fresh skew, and
// doubled for the ranks on one overloaded PE (pe[r] is rank r's PE).
func stepLoads(seed int64, e, k int, loads []float64, pe []int, numPEs int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(e)*10_007 + int64(k)))
	sigma := 0.25 + 0.5*rng.Float64()
	hot := rng.Intn(numPEs)
	for i := range loads {
		loads[i] = 1000 * math.Exp(sigma*rng.NormFloat64())
		if pe[i] == hot {
			loads[i] *= 2
		}
	}
}

// runLB runs lb-rebalance: Episodes set-ups (build + run to the gate),
// each followed by Rebalance steps for its share of the run.
func runLB(p params, ref reference, send func(line)) error {
	start := time.Now()
	op := 0
	for e := 0; e < p.Episodes; e++ {
		var job *ampi.Job
		until := time.Duration(float64(e+1) / float64(p.Episodes) * p.Seconds * float64(time.Second))
		// At least 3 steps: in a traced run the set-up step and every
		// fourth operation are traced, so one step at least is untraced.
		for k := 0; k < 3 || time.Since(start) < until; k++ {
			// Every set-up is traced too, so its layers are measured. Three
			// steps in four run untraced: they time lb.step_ms_p50/p90, and
			// the ~120 of a run leave at least 10 beyond the p90.
			traced := p.Trace && (op%4 == 1 || job == nil)
			send(beginLine(op, p.OpDeadline))
			rec := newRecorder(traced, -1)
			root := rec.begin("bench.op", -1)
			var r opRecord
			if job == nil {
				var err error
				job, err = lbSetup(p, rec, root, &r)
				if err != nil {
					r.Err = err.Error()
				}
			}
			if r.Err == "" {
				lbStep(p, job, ref, e, k, rec, root, &r)
			}
			rec.end(root)
			r.Op, r.Traced, r.Spans = op, traced, rec.list()
			send(line{Op: &r})
			op++
			if r.Err != "" {
				break // the job's state is suspect; start the next episode afresh
			}
		}
	}
	return nil
}

// lbSetup builds the job and runs it serially to the LB gate.
func lbSetup(p params, rec *recorder, root int, r *opRecord) (*ampi.Job, error) {
	su := rec.begin("bench.setup", root)
	defer rec.end(su)
	g := rec.begin("bench.gc", su)
	heap0 := liveHeap()
	rec.end(g)
	t0 := time.Now()
	m, err := core.NewMachine(core.Config{NumPEs: p.Cfg.PEs})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	job, err := ampi.NewJacobiOn(m, p.Cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	g = rec.begin("bench.gc", su)
	if h := liveHeap(); h > heap0 {
		r.BytesPerRank = float64(h-heap0) / float64(p.Cfg.Ranks)
	}
	rec.end(g)
	t3 := time.Now()
	job.Start()
	m.RunUntilQuiescent()
	t4 := time.Now()
	rec.add("core.boot", su, t0, t1)
	rec.add("ampi.build", su, t1, t2)
	rec.add("core.run_to_gate", su, t3, t4)
	r.SetupS = t2.Sub(t0).Seconds() + t4.Sub(t3).Seconds()
	if rec != nil {
		r.Layer = map[string]float64{"core.boot_s": t1.Sub(t0).Seconds(), "ampi.build_s": t2.Sub(t1).Seconds()}
	}
	if job.Done() {
		return nil, errors.New("job finished without parking at the LB gate")
	}
	return job, nil
}

// lbStep times one Rebalance over seeded loads and checks it: the
// moved count, every rank on the PE its plan chose, and every rank's
// virtual time unchanged from the reference.
func lbStep(p params, job *ampi.Job, ref reference, e, k int, rec *recorder, root int, r *opRecord) {
	n := p.Cfg.Ranks
	g := rec.begin("bench.loads", root)
	before := make([]int, n)
	for i := range before {
		before[i] = job.PEOf(i)
	}
	s := &seededGreedy{loads: make([]float64, n), rec: rec}
	stepLoads(p.Seed, e, k, s.loads, before, p.Cfg.PEs)
	rec.end(g)

	traced := rec != nil
	var mem0 memCounters
	var hs *heapSampler
	var migs0, bytes0 uint64
	if traced {
		migs0, bytes0 = job.Machine().MigrationStats()
		mem0 = readMem()
		hs = startHeapSampler()
	}
	st := rec.begin("lb.step", root)
	s.parent = st
	steal0 := hostSteal()
	t0 := time.Now()
	moved, err := job.Rebalance(s)
	t1 := time.Now()
	r.StealS = hostSteal() - steal0
	rec.end(st)
	r.WallS = t1.Sub(t0).Seconds()
	r.RankSteps = float64(n)
	if p.Trace && !traced {
		// The untraced steps of a traced run time the step percentiles.
		ms := r.WallS * 1e3
		r.Layer = map[string]float64{"lb.step_ms_p50": ms, "lb.step_ms_p90": ms}
	}

	chk := rec.begin("bench.check", root)
	defer rec.end(chk)
	if traced {
		mem := readMem().sub(mem0)
		migs, bytes := job.Machine().MigrationStats()
		if r.Layer == nil {
			r.Layer = map[string]float64{}
		}
		for k, v := range map[string]float64{
			"loadbalance.plan_ms_p50":      float64(s.planNs) / 1e6,
			"loadbalance.moved_frac":       float64(moved) / float64(n),
			"core.migrations":              float64(migs - migs0),
			"core.migrated_bytes_per_rank": float64(bytes-bytes0) / float64(n),
		} {
			r.Layer[k] = v
		}
		if moved > 0 {
			r.Layer["migrate.us_per_rank"] = (float64(t1.Sub(t0).Nanoseconds()-s.bodyNs) / 1e3) / float64(moved)
			r.Layer["migrate.bytes_per_rank"] = float64(bytes-bytes0) / float64(moved)
		}
		addMemLayer(r.Layer, mem, hs.finish(), float64(n))
	}
	if err == nil {
		err = s.err
	}
	if err != nil {
		r.Err = err.Error()
		return
	}
	want := 0
	for i := range before {
		dest, ok := s.plan[s.base+uint64(i)]
		if !ok {
			dest = before[i]
		}
		if dest != before[i] {
			want++
		}
		if got := job.PEOf(i); got != dest {
			r.Err = fmt.Sprintf("rank %d is on PE %d, its plan chose %d", i, got, dest)
			return
		}
	}
	if moved != want {
		r.Err = fmt.Sprintf("Rebalance reported %d moved, the plan moves %d", moved, want)
		return
	}
	if traced {
		items := make([]loadbalance.Item, n)
		for i := range items {
			items[i] = loadbalance.Item{ID: s.base + uint64(i), PE: before[i], Load: s.loads[i]}
		}
		r.Layer["loadbalance.imbalance"] = loadbalance.Imbalance(loadbalance.PELoads(items, p.Cfg.PEs, s.plan))
	}
	var d digest
	for rank := 0; rank < n; rank++ {
		d.add(rank, job.VT(rank), nil)
	}
	r.PredictedMs = job.PredictedNs() / 1e6
	if err := checkDigest(d, ref, r.PredictedMs); err != nil {
		r.Err = err.Error()
	}
}
