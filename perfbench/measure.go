package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch measures wall time, process CPU time and heap allocation
// over one phase.
type stopwatch struct {
	wall0  time.Time
	cpu0   time.Duration
	alloc0 float64
}

func startWatch() stopwatch {
	return stopwatch{wall0: time.Now(), cpu0: cpuTime(), alloc0: readRuntime().allocBytes}
}

// allocKB returns the KiB allocated since start.
func (s stopwatch) allocKB() float64 { return (readRuntime().allocBytes - s.alloc0) / 1024 }

// stop returns the wall and CPU seconds since start.
func (s stopwatch) stop() (wall, cpu float64) {
	return time.Since(s.wall0).Seconds(), (cpuTime() - s.cpu0).Seconds()
}

// inputsPerRun is how many distinct inputs a simulator run cycles
// through: cycle c uses input cycleSeed(seed, c, inputsPerRun). Counts
// and virtual-time figures are taken over the first round of inputs, so
// they depend on the seed alone and average out the quirks of any single
// input.
const inputsPerRun = 4

// cycleSeed is the input seed of cycle c of a run that cycles through
// the given number of inputs.
func cycleSeed(seed int64, c, inputs int) int64 { return seed + int64(c%inputs)*1_000_003 }

// moreCycles reports whether a run that has completed c cycles should run
// another: it always completes the first round of inputs (cycle 0 of
// which is the warm-up), then runs until the measured time, counted from
// the end of the warm-up, is spent.
func moreCycles(c int, measuring time.Time, seconds float64) bool {
	return c < inputsPerRun || time.Since(measuring).Seconds() < seconds
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// beyond it, or NaN with fewer than forty samples, where it would be no
// tail.
func tail(xs []float64) float64 {
	if len(xs) < 40 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-11]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakHeap is the highest live heap, in bytes, that a collection has
// found since the last resetPeakHeap.
var peakHeap atomic.Uint64

// gcSentinel carries a finalizer that runs once after each collection.
// It holds pointers so that it is never placed in a tiny-allocator
// block, whose finalizers may not run.
type gcSentinel struct{ _ [2]*byte }

// watchHeap arms a finalizer that, after every collection, reads the
// live heap that collection's mark found and re-arms itself. Memory held
// only in the middle of a phase (queued events, messages in flight,
// per-join state) thus counts toward the peak.
func watchHeap() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		notePeak(liveHeapBytes())
		watchHeap()
	})
}

func notePeak(b uint64) {
	for {
		old := peakHeap.Load()
		if b <= old || peakHeap.CompareAndSwap(old, b) {
			return
		}
	}
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// resetPeakHeap collects the garbage of earlier work and restarts the
// peak from the live heap that is left.
func resetPeakHeap() {
	runtime.GC()
	peakHeap.Store(liveHeapBytes())
}

// peakHeapMB forces a final collection, so that what is alive now counts
// too, and returns the peak live heap since the last resetPeakHeap.
func peakHeapMB() float64 {
	runtime.GC()
	notePeak(liveHeapBytes())
	return float64(peakHeap.Load()) / (1 << 20)
}

// overheadPct is the traced mode's overhead in percent: the median, over
// pairs of twin cycles run back to back on the same input, of the traced
// cycle's CPU per join over the untraced one's, less one. Pairing the
// twins cancels the drift of the machine's speed over a run.
func overheadPct(untraced, traced []float64) float64 {
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i] / untraced[i]
	}
	return 100 * (median(ratios) - 1)
}

// runtimeCounters are cumulative runtime/metrics figures for the traced
// mode: GC CPU and bytes allocated.
type runtimeCounters struct {
	gcCPU      float64
	allocBytes float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64())}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCPU: a.gcCPU - b.gcCPU, allocBytes: a.allocBytes - b.allocBytes}
}
