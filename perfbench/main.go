// Command perfbench is migflow's end-to-end benchmark. One invocation
// runs one workload for a fixed measuring time and prints, as the last
// line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics: every end-to-end metric of
// BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
//
// Usage (from the root of a checkout; run.sh builds the binary):
//
//	sh perfbench/run.sh --workload jacobi-inproc --seed 1 --seconds 30 --trace 0
//
// The same binary plays three roles. The coordinator (the process the
// user starts) spawns a runner in its own process group and enforces
// every deadline: an operation that overruns is killed together with
// any worker processes, counted as failed, and its shared-memory files
// are removed. The runner computes the in-process serial reference and
// times the operations, streaming one JSON line per operation. Worker
// processes of the sharded workloads re-enter through shard.WorkerMain.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"migflow/internal/shard"
)

const envRole = "PERFBENCH_ROLE"

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The workloads and metrics, read from BENCHMARK.json at start-up.
// endToEnd are the metrics a user of the runtime sees; every workload
// reports all of them. perLayer are the traced run's metrics, taken
// over its traced operations (the lb.step_ms_* step times over its
// untraced LB steps): a name ending in _p90 is the 90th percentile of
// those samples, every other value is their median.
var (
	workloadNames      []string
	endToEnd, perLayer []metricDef
)

// loadBenchmark reads the workload names and metric lists from
// BENCHMARK.json.
func loadBenchmark(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	workloadNames = workloadNames[:0]
	for _, w := range f.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	endToEnd, perLayer = f.EndToEnd, f.PerLayer
	return nil
}

// specJSON describes what BENCHMARK.json's fixed key set cannot hold;
// the code reads the self-time tolerance from it.
//
//go:embed spec.json
var specJSON []byte

// selfTimeTolerance bounds |Σ layer self time − traced wall| / wall.
var selfTimeTolerance = func() float64 {
	var s struct {
		Tolerance float64 `json:"self_time_tolerance"`
	}
	if err := json.Unmarshal(specJSON, &s); err != nil || s.Tolerance <= 0 {
		panic("perfbench: spec.json has no self_time_tolerance")
	}
	return s.Tolerance
}()

// totalDeadline bounds one invocation, reference and set-up included.
const totalDeadline = 170 * time.Second

// line is one message of the runner → coordinator stream.
type line struct {
	Begin      *beginMsg `json:"begin,omitempty"`
	ReferenceS float64   `json:"reference_s,omitempty"` // the serial reference's wall time
	Op         *opRecord `json:"op,omitempty"`
	Fatal      string    `json:"fatal,omitempty"`
}

func beginLine(op int, deadline time.Duration) line {
	return line{Begin: &beginMsg{Op: op, DeadlineMs: deadline.Milliseconds()}}
}

type beginMsg struct {
	Op         int   `json:"op"` // -1: the reference
	DeadlineMs int64 `json:"deadline_ms"`
}

// parseFlags reads the command line and derives the run's parameters.
func parseFlags(args []string) (params, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload string
		seed     int64
		seconds  float64
		trace    int
	)
	fs.StringVar(&workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 30, "measuring time")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return params{}, err
	}
	if trace != 0 && trace != 1 {
		return params{}, fmt.Errorf("--trace must be 0 or 1")
	}
	if seconds <= 0 {
		return params{}, fmt.Errorf("--seconds must be positive")
	}
	return newParams(workload, seed, seconds, trace == 1, false)
}

func main() {
	if shard.WorkerMain() {
		return
	}
	if err := loadBenchmark("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a migflow checkout:", err)
		os.Exit(2)
	}
	p, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if os.Getenv(envRole) == "runner" {
		os.Exit(runnerMain(p))
	}
	if err := coordinate(p); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runnerMain streams the workload's operations as JSON lines.
func runnerMain(p params) int {
	pinWorkerThreads()
	out := bufio.NewWriter(os.Stdout)
	send := func(l line) {
		b, _ := json.Marshal(l)
		out.Write(append(b, '\n'))
		out.Flush()
	}
	if err := runWorkload(p, send); err != nil {
		send(line{Fatal: err.Error()})
		return 1
	}
	return 0
}

// pinWorkerThreads gives every worker process the runner spawns one
// OS thread (workers inherit the environment), so 2 workers × 1 thread
// stay within the host's cores.
func pinWorkerThreads() { os.Setenv("GOMAXPROCS", "1") }

// outcome is what the coordinator learned from one runner.
type outcome struct {
	ops        []opRecord
	begun      int     // operations started
	referenceS float64 // wall time of the serial reference
	failNote   string  // why the run ended early, if it did
}

// take folds one runner message into the outcome.
func (o *outcome) take(l line) {
	switch {
	case l.Begin != nil && l.Begin.Op >= 0:
		o.begun++
	case l.ReferenceS > 0:
		o.referenceS = l.ReferenceS
	case l.Op != nil:
		o.ops = append(o.ops, *l.Op)
	case l.Fatal != "":
		o.failNote = l.Fatal
	}
}

// coordinate runs the runner under deadlines and prints the result.
func coordinate(p params) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	shmBefore := shmEntries()
	out := superviseRunner(exe, p)
	leftovers := removeNewShm(shmBefore)

	res := summarize(p, out)
	printTable(p, res)
	if p.Trace {
		tr := traceFor(out)
		if tr.SelfErr > tr.Tolerance {
			res.correct = false
			fmt.Printf("layer self times miss the traced wall by %.3f%% (tolerance %.1f%%)\n", tr.SelfErr*100, tr.Tolerance*100)
		}
		tr.print(os.Stdout, p.Workload)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", p.Workload, p.Seed))
		if err := writeChromeTrace(path, tracedSpans(out), tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			fmt.Printf("trace events: %s\n", path)
		}
	}
	meta := runMeta(p, out, res, leftovers)
	mb, _ := json.Marshal(meta)
	fmt.Printf("META %s\n", mb)
	b, err := resultLine(p, res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// superviseRunner starts the runner in its own process group and
// enforces the reference, per-operation and whole-run deadlines.
func superviseRunner(exe string, p params) outcome {
	var out outcome
	args := []string{"--workload", p.Workload, "--seed", fmt.Sprint(p.Seed), "--seconds", fmt.Sprint(p.Seconds), "--trace", "0"}
	if p.Trace {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), envRole+"=runner")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		out.failNote = err.Error()
		return out
	}
	if err := cmd.Start(); err != nil {
		out.failNote = err.Error()
		return out
	}
	lines := make(chan line)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 256<<20)
		for sc.Scan() {
			var l line
			if json.Unmarshal(sc.Bytes(), &l) != nil {
				fmt.Fprintf(os.Stderr, "[runner] %s\n", sc.Text())
				continue
			}
			lines <- l
		}
	}()
	total := time.NewTimer(totalDeadline)
	defer total.Stop()
	step := time.NewTimer(time.Hour)
	defer step.Stop()
	inOp := false
	kill := func(why string) {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		out.failNote = why
		for range lines {
		}
	}
loop:
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				break loop
			}
			out.take(l)
			switch {
			case l.Begin != nil:
				step.Reset(time.Duration(l.Begin.DeadlineMs) * time.Millisecond)
				inOp = l.Begin.Op >= 0
			case l.Op != nil:
				inOp = false
			}
		case <-step.C:
			what := "the reference"
			if inOp {
				what = fmt.Sprintf("operation %d", out.begun-1)
			}
			kill(what + " missed its deadline; runner and workers killed")
			break loop
		case <-total.C:
			kill(fmt.Sprintf("run exceeded %v; runner and workers killed", totalDeadline))
			break loop
		}
	}
	if err := cmd.Wait(); err != nil && out.failNote == "" {
		out.failNote = "runner: " + err.Error()
	}
	// A killed group may leave orphaned workers mid-exit; make sure.
	syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
	return out
}

// shmEntries lists the rendezvous directories shard.Run creates.
func shmEntries() map[string]bool {
	seen := map[string]bool{}
	for _, dir := range []string{"/dev/shm", os.TempDir()} {
		m, _ := filepath.Glob(filepath.Join(dir, "migflow-shard-*"))
		for _, e := range m {
			seen[e] = true
		}
	}
	return seen
}

// removeNewShm deletes rendezvous directories this run created and
// did not remove (a killed run leaves its rings behind).
func removeNewShm(before map[string]bool) []string {
	var left []string
	for e := range shmEntries() {
		if !before[e] {
			left = append(left, e)
			os.RemoveAll(e)
		}
	}
	sort.Strings(left)
	return left
}

// result is the run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	samples           map[string][]float64 // per-op samples behind each end-to-end metric
}

func summarize(p params, out outcome) result {
	res := result{correct: true, metrics: map[string]float64{}, samples: map[string][]float64{}}
	res.attempted = out.begun
	for _, r := range out.ops {
		if r.Err != "" {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %s\n", r.Op, r.Err)
		}
	}
	if missing := out.begun - len(out.ops); missing > 0 {
		res.failed += missing // begun, never reported: killed at its deadline
	}
	if out.failNote != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", out.failNote)
		if res.attempted == 0 {
			res.attempted, res.failed = 1, 1
		}
	}
	res.correct = res.failed == 0 && out.failNote == ""

	s := res.samples
	var rankSteps, wall, steal float64
	for _, r := range out.ops {
		if r.Err != "" {
			continue
		}
		if r.SetupS > 0 {
			s["setup_s"] = append(s["setup_s"], r.SetupS)
		}
		if r.BytesPerRank > 0 {
			s["bytes_per_rank"] = append(s["bytes_per_rank"], r.BytesPerRank)
		}
		if r.Traced {
			continue // timed phases come from untraced operations only
		}
		rankSteps += r.RankSteps
		wall += r.WallS
		steal += r.StealS
		s["op_ms"] = append(s["op_ms"], r.WallS*1e3)
		s["predicted_ms"] = append(s["predicted_ms"], r.PredictedMs)
	}
	m := res.metrics
	if wall > steal {
		// All untraced operations' work over all their timed wall, net
		// of the time the hypervisor stole from the vCPUs (zero on bare
		// metal): a longer average than any one operation's rate. On a
		// shared 2-vCPU host steal took 0-16% of a run and, left in,
		// doubled the run-to-run spread (spec.json "measured"). A vCPU
		// accrues steal only while runnable, so code that spins instead
		// of parking has more subtracted, by at most the steal share:
		// the raw rate goes into the META line, and a claimed gain must
		// hold on it too.
		m["rank_steps_per_s"] = rankSteps / (wall - steal)
		m["rank_steps_per_s_raw"] = rankSteps / wall
	}
	m["setup_s"] = median(s["setup_s"])
	m["predicted_ms"] = median(s["predicted_ms"])
	m["bytes_per_rank"] = median(s["bytes_per_rank"])

	if p.Trace {
		for _, d := range perLayer {
			var xs []float64
			for _, r := range out.ops {
				// Only operations that reach a layer report it (an LB
				// set-up, a migration); a layer no operation reached reads 0.
				// Traced operations report every layer they reach; untraced
				// LB steps report only their step time (lbStep).
				if v, ok := r.Layer[d.Name]; ok && r.Err == "" {
					xs = append(xs, v)
				}
			}
			if strings.HasSuffix(d.Name, "_p90") {
				m[d.Name] = quantile(xs, 0.9)
			} else {
				m[d.Name] = median(xs)
			}
		}
	}
	return res
}

func tracedSpans(out outcome) [][]span {
	var ops [][]span
	for _, r := range out.ops {
		if r.Traced && r.Err == "" {
			ops = append(ops, r.Spans)
		}
	}
	return ops
}

// traceFor builds the self-time report and the tracing overhead: the
// median timed phase of the traced operations against the untraced
// ones of the same run.
func traceFor(out outcome) traceReport {
	var on, off []float64
	for _, r := range out.ops {
		if r.Err != "" {
			continue
		}
		if r.Traced {
			on = append(on, r.WallS)
		} else {
			off = append(off, r.WallS)
		}
	}
	overhead := 0.0
	if len(on) > 0 && len(off) > 0 {
		overhead = (median(on)/median(off) - 1) * 100
	}
	return buildTraceReport(tracedSpans(out), selfTimeTolerance, overhead)
}

// runMeta is the provenance block printed with every result.
func runMeta(p params, out outcome, res result, shmLeft []string) map[string]any {
	host, _ := os.Hostname()
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	workerProcs, ok, traced := 0, 0, 0
	nets := map[string]int{} // fabric a worker actually used → workers × operations
	for _, r := range out.ops {
		workerProcs = max(workerProcs, r.WorkerProcs)
		for _, n := range r.Nets {
			nets[n]++
		}
		if r.Err == "" {
			ok++
			if r.Traced {
				traced++
			}
		}
	}
	spread := map[string]any{}
	for name, xs := range res.samples {
		spread[name] = map[string]any{"n": len(xs), "quartile_spread": quartileSpread(xs), "min": quantile(xs, 0), "max": quantile(xs, 1)}
	}
	meta := map[string]any{
		"workload":              p.Workload,
		"seed":                  p.Seed,
		"seconds":               p.Seconds,
		"trace":                 p.Trace,
		"host":                  host,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs_parent":     p.InprocProcs,
		"go":                    runtime.Version(),
		"kernel":                strings.TrimSpace(string(kernel)),
		"commit":                commit(),
		"source_digest":         os.Getenv("PERFBENCH_SOURCE"), // run.sh: sha256 of go.mod and the Go sources
		"ranks":                 p.Cfg.Ranks,
		"iters":                 p.Cfg.Iters,
		"pes":                   p.Cfg.PEs,
		"work_ns":               p.Cfg.WorkNs,
		"work_skew":             p.Cfg.WorkSkew,
		"ops_ok":                ok,
		"ops_traced":            traced,
		"error_rate":            float64(res.failed) / float64(max(res.attempted, 1)),
		"serial_reference_s":    out.referenceS,
		"op_wall_steal_s":       wallSteal(out),
		"rank_steps_per_s_raw":  res.metrics["rank_steps_per_s_raw"], // over raw wall, steal not subtracted
		"within_run_spread":     spread,
		"shm_leftovers_removed": shmLeft,
	}
	if p.Workload == "lb-rebalance" {
		meta["lb_step_samples"] = len(res.samples["op_ms"]) // untraced steps
	}
	if p.sharded() {
		meta["workers"] = p.Workers
		meta["net"] = p.Net
		meta["worker_nets"] = nets
		meta["gomaxprocs_worker"] = workerProcs
		meta["worker_threads_within_nproc"] = p.Workers*workerProcs <= runtime.NumCPU()
	}
	return meta
}

// wallSteal lists every operation's timed phase and the hypervisor
// steal during it, in seconds.
func wallSteal(out outcome) [][2]float64 {
	var ws [][2]float64
	for _, r := range out.ops {
		ws = append(ws, [2]float64{r.WallS, r.StealS})
	}
	return ws
}

// commit is the git revision when the working directory is a
// repository's root ("" otherwise; a checkout need not be one).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func printTable(p params, res result) {
	defs := endToEnd
	if p.Trace {
		defs = perLayer
	}
	fmt.Printf("perfbench %s seed=%d: %d operations, %d failed\n", p.Workload, p.Seed, res.attempted, res.failed)
	for _, d := range defs {
		fmt.Printf("  %-40s %16.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
}

// resultLine is the final line: exactly the keys correct, attempted,
// failed and metrics.
func resultLine(p params, res result) ([]byte, error) {
	defs := endToEnd
	if p.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}
