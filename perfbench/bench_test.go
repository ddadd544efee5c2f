package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"migflow/internal/shard"
)

// envTestHang turns the test binary into a runner that starts an
// operation, spawns a child in its process group, leaves a rendezvous
// directory behind and hangs — the shape of a wedged sharded run.
const envTestHang = "PERFBENCH_TEST_HANG"

func TestMain(m *testing.M) {
	if shard.WorkerMain() {
		return
	}
	if dir := os.Getenv(envTestHang); dir != "" {
		hangingRunner(dir)
	}
	if err := loadBenchmark("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pinWorkerThreads() // the tests play the runner
	os.Exit(m.Run())
}

func hangingRunner(dir string) {
	child := exec.Command("sleep", "600")
	if err := child.Start(); err != nil {
		os.Exit(3)
	}
	os.WriteFile(filepath.Join(dir, "child.pid"), []byte(strconv.Itoa(child.Process.Pid)), 0o644)
	os.MkdirAll(filepath.Join(os.TempDir(), "migflow-shard-perfbench-test"), 0o755)
	fmt.Println(`{"begin":{"op":-1,"deadline_ms":5000}}`)
	fmt.Println(`{"begin":{"op":0,"deadline_ms":300}}`)
	select {}
}

// runSmoke runs a workload at smoke scale in-process and returns its
// operations and the coordinator's summary.
func runSmoke(t *testing.T, workload string, trace, corrupt bool) (outcome, result) {
	t.Helper()
	p, err := newParams(workload, 7, 0.3, trace, true)
	if err != nil {
		t.Fatal(err)
	}
	p.corruptRef = corrupt
	var out outcome
	if err := runWorkload(p, out.take); err != nil {
		t.Fatal(err)
	}
	return out, summarize(p, out)
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json traced at
// smoke scale: all operations pass their checks, every end-to-end
// metric is non-zero, the layer self times add up to the traced wall,
// and the result line has exactly its four keys. Every per-layer
// metric of BENCHMARK.json must be measured by some workload, so a
// name the code does not compute cannot sit there reading 0.
func TestWorkloadsSmoke(t *testing.T) {
	measured := map[string]bool{}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			out, res := runSmoke(t, w, true, false)
			if !res.correct || res.failed != 0 || res.attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v := res.metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
			for _, r := range out.ops {
				for k := range r.Layer {
					measured[k] = true
				}
			}
			tr := traceFor(out)
			if len(tr.Self) == 0 || tr.SelfErr > tr.Tolerance {
				t.Errorf("self times %v sum to %.4fs against a wall of %.4fs", tr.Self, tr.SelfSum, tr.Wall)
			}
			for _, trace := range []bool{false, true} {
				p := newParamsMust(t, w)
				p.Trace = trace
				b, err := resultLine(p, res)
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(b, &line); err != nil || len(line) != 4 || line["metrics"] == nil {
					t.Fatalf("result line %s: %v", b, err)
				}
			}
		})
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.Name)
		}
	}
}

func newParamsMust(t *testing.T, w string) params {
	p, err := newParams(w, 7, 0.3, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCorruptReferenceFails: a reference digest that does not match
// must fail every operation, never pass silently.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			out, res := runSmoke(t, w, false, true)
			if res.correct || res.failed != res.attempted || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			for _, r := range out.ops {
				if !strings.Contains(r.Err, "digest") {
					t.Errorf("operation %d failed for another reason: %q", r.Op, r.Err)
				}
			}
		})
	}
}

// TestDeadlineKillsRunner: an operation that overruns its deadline is
// killed with everything in its process group, counted as failed, and
// its rendezvous directory is removed — within bounded time.
func TestDeadlineKillsRunner(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(envTestHang, dir)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	before := shmEntries()
	start := time.Now()
	out := superviseRunner(exe, params{Workload: "jacobi-inproc", Seed: 1, Seconds: 1})
	left := removeNewShm(before)
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("supervision took %v", took)
	}
	res := summarize(params{}, out)
	if res.correct || res.attempted != 1 || res.failed != 1 || !strings.Contains(out.failNote, "deadline") {
		t.Fatalf("correct=%v attempted=%d failed=%d note=%q", res.correct, res.attempted, res.failed, out.failNote)
	}
	if len(left) != 1 || !strings.HasSuffix(left[0], "migflow-shard-perfbench-test") {
		t.Errorf("removed %v, want the hung run's rendezvous directory", left)
	}
	b, err := os.ReadFile(filepath.Join(dir, "child.pid"))
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := strconv.Atoi(string(b))
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil || strings.Contains(string(st), ") Z ") {
			break // gone, or a zombie awaiting its reaper: no longer running
		}
		if time.Now().After(deadline) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Fatalf("child %d of the killed runner is still running", pid)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInteractionMap: every per-layer metric names the end-to-end
// metric it should move and the workloads it should move it on.
func TestInteractionMap(t *testing.T) {
	var spec struct {
		Workloads    map[string]json.RawMessage `json:"workloads"`
		Interactions []struct {
			Metric, Moves string
			On            []string
			UnchangedOn   []string `json:"unchanged_on"`
		} `json:"interactions"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range workloadNames {
		wl[w] = true
		if _, ok := spec.Workloads[w]; !ok {
			t.Errorf("spec.json does not describe workload %s", w)
		}
	}
	mapped := map[string]bool{}
	for _, in := range spec.Interactions {
		mapped[in.Metric] = true
		if !e2e[in.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", in.Metric, in.Moves)
		}
		if len(in.On) == 0 {
			t.Errorf("%s names no workload", in.Metric)
		}
		for _, w := range append(in.On, in.UnchangedOn...) {
			if !wl[w] {
				t.Errorf("%s names unknown workload %q", in.Metric, w)
			}
		}
	}
	for _, d := range perLayer {
		if !mapped[d.Name] {
			t.Errorf("per-layer metric %s has no entry in spec.json interactions", d.Name)
		}
	}
}

// TestSelfTimes: nested spans partition the root; concurrent siblings
// share their overlap; a child stamped outside its root shows as error.
func TestSelfTimes(t *testing.T) {
	s := func(name string, start, end int64, parent int) span {
		return span{Name: name, Start: start * 1e9, End: end * 1e9, Parent: parent}
	}
	spans := []span{
		s("bench.op", 0, 10, -1),
		s("shard.proc", 1, 9, 0),
		s("ampi.run", 2, 6, 1),
		s("shard.migrate", 4, 8, 1),
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 2, "shard": 1 + 1 + 2 + 1, "ampi": 2 + 1}
	for l, v := range want {
		if d := got[l] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("layer %s self %v, want %v (all %v)", l, got[l], v, got)
		}
	}
	rep := buildTraceReport([][]span{spans}, selfTimeTolerance, 0)
	if rep.SelfErr > 1e-12 {
		t.Errorf("nested spans: self-time error %v", rep.SelfErr)
	}
	spans = append(spans, s("shard.close", 9, 11, 1))
	if rep := buildTraceReport([][]span{spans}, selfTimeTolerance, 0); rep.SelfErr < 0.09 {
		t.Errorf("child outside its root: self-time error %v, want ≈ 0.1", rep.SelfErr)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestFallbackFabricFails: a sharded operation whose workers ran on
// another fabric than the workload's (shard.Run falls back to unix
// sockets when it cannot map the shm rings) measured another transport
// and must fail, even when its digests match.
func TestFallbackFabricFails(t *testing.T) {
	p := newParamsMust(t, "shard-stream-shm")
	ws := []workerResult{{Index: 0, Net: "unix"}, {Index: 1, Net: "unix"}}
	err := checkShard(p, ws, digest{}, reference{}, 0)
	if err == nil || !strings.Contains(err.Error(), "fabric") {
		t.Fatalf("checkShard = %v, want a fabric error", err)
	}
}
