package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// run carries one benchmark invocation: its arguments, the metric
// values gathered so far, the checked-op tally and the span recorder.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string // scratch directory inside the checkout
	tr       *tracer

	mu        sync.Mutex
	vals      map[string]float64
	attempted int
	failed    int
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.vals[name] = v
	r.mu.Unlock()
}

// checked records the outcome of one checked operation: an error, a
// timeout or a wrong answer is a failure.
func (r *run) checked(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
	}
	r.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// fail records a failure that is not tied to one operation (a leak, a
// barrier that never quiesced).
func (r *run) fail(format string, args ...any) {
	r.checked(fmt.Errorf(format, args...))
}

// within reports whether a phase that started at start and lasts
// seconds still has time left.
func within(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() < seconds
}

// --- sample statistics --------------------------------------------------

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile, capped at 0.99, that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies collects per-op wall-clock latencies (ms) from several
// client goroutines.
type latencies struct {
	mu sync.Mutex
	v  []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.v = append(l.v, ms(d))
	l.mu.Unlock()
}

// report sets <prefix>_p50_ms and <prefix>_p99_ms; the tail is the
// highest percentile with ten samples beyond it (printed to stderr).
func (l *latencies) report(r *run, prefix string) {
	q := tailQuantile(len(l.v))
	r.set(prefix+"_p50_ms", median(l.v))
	r.set(prefix+"_p99_ms", quantile(l.v, q))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s tail is p%.1f of %d samples\n", r.workload, prefix, q*100, len(l.v))
}

// --- process resource sampling -------------------------------------------

// usage is a point-in-time sample of process CPU time and allocator
// counters, taken at phase boundaries.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcCPU   float64
	allCPU  float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(cpuMetrics)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcCPU:   cpuMetrics[0].Value.Float64(),
		allCPU:  cpuMetrics[1].Value.Float64(),
	}
}

// reportUsage sets the CPU and allocator metrics of a measured phase
// that completed ops operations.
func (r *run) reportUsage(before, after usage, ops int) {
	n := float64(ops)
	r.set("cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), n))
	r.set("core.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), n))
	r.set("core.alloc_kb_per_op", ratio(float64(after.bytes-before.bytes)/1024, n))
	r.set("core.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.allCPU-before.allCPU))
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// waitGoroutines waits until the goroutine count is back at baseline.
func waitGoroutines(base int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// systemSeed fixes the system's own randomness across runs: the overlay
// plan, the transports' and the simulator's random sources. The
// workload seed only generates the inputs: datasets, query sequences
// and query origins.
const systemSeed = 1

// insertShare is the length of a read workload's insert phase, which
// follows its query phase, as a share of the query phase.
const insertShare = 0.5

// setupReps is how many times each workload builds its system; setup_s
// is the median.
const setupReps = 3
