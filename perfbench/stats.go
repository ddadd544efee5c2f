package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is (Q3 − Q1) / median, with the quartiles computed
// as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method) — the spread rule BENCHMARK.json's bounds are
// checked with. Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// digest is an order-independent fingerprint of per-rank results: the
// wrapping sum of a strong per-rank mix. Workers can each sum the
// ranks they own and the parent adds the partial sums, so a sharded
// run is checked bit for bit against the in-process reference without
// shipping every rank's state.
type digest struct {
	VT    uint64 // per-rank final virtual time bits
	Cells uint64 // per-rank Jacobi cell bits (zero when not observed)
	Ranks uint64 // the set of ranks counted
	Count int
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds one rank into the digest.
func (d *digest) add(rank int, vt float64, cell *cellBits) {
	r := mix64(uint64(rank) + 0x9e3779b97f4a7c15)
	d.VT += mix64(r ^ math.Float64bits(vt))
	if cell != nil {
		d.Cells += mix64(mix64(mix64(r^cell.X)^cell.Resid) ^ cell.Global)
	}
	d.Ranks += r
	d.Count++
}

func (d *digest) merge(o digest) {
	d.VT += o.VT
	d.Cells += o.Cells
	d.Ranks += o.Ranks
	d.Count += o.Count
}

// cellBits is one Jacobi rank's final state as raw float64 bits.
type cellBits struct{ X, Resid, Global uint64 }

// liveHeap returns the live heap bytes. It collects twice: a sync.Pool
// keeps its buffers through one collection, so a single GC would count
// whatever pools happen to hold.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memCounters is the slice of runtime.MemStats the per-layer metrics
// difference across a timed phase.
type memCounters struct {
	Mallocs, AllocBytes, GCs, PauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{Mallocs: ms.Mallocs, AllocBytes: ms.TotalAlloc, GCs: uint64(ms.NumGC), PauseNs: ms.PauseTotalNs}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{a.Mallocs - b.Mallocs, a.AllocBytes - b.AllocBytes, a.GCs - b.GCs, a.PauseNs - b.PauseNs}
}

// heapSampler tracks the peak heap-object bytes while a traced phase
// runs: the runtime keeps no high-water mark, so a goroutine samples
// runtime/metrics (which does not stop the world) every few ms.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine's vCPUs since boot, in seconds of wall time: the steal
// column of /proc/stat (USER_HZ ticks summed over vCPUs) divided by
// the vCPU count. It is 0 where /proc/stat is absent or reports none.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, ln := range bytes.Split(b, []byte("\n")) {
		f := bytes.Fields(ln)
		if len(f) < 9 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		if len(f[0]) == 3 {
			total, _ = strconv.ParseFloat(string(f[8]), 64)
		} else {
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	const userHZ = 100
	return total / userHZ / float64(cpus)
}
