package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark takes; spans store
// nanosecond offsets from it.
var epoch = time.Now() //rapidlint:allow nondeterminism — benchmark timing

// clock returns the monotonic nanoseconds since epoch. It is the
// benchmark's only wall-clock read besides epoch itself, and nothing it
// returns feeds simulation state.
func clock() int64 {
	//rapidlint:allow sessionconfined — epoch is set once at program start and only read afterwards
	return int64(time.Since(epoch)) //rapidlint:allow nondeterminism — benchmark timing
}

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// readMetric samples one runtime/metrics counter.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// heapWatch records the peak live heap — the heap marked live by each
// garbage collection — while armed. A finalizer on an unreachable
// sentinel runs once after every collection, samples the live heap and
// re-arms, so the watch costs nothing between collections and needs no
// polling goroutine.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type sentinel struct{ w *heapWatch }

// watchHeap starts a watch. The caller must stop it.
func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{w: w}, func(s *sentinel) {
		s.w.sample()
		if !s.w.stopped.Load() {
			s.w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	live := readMetric("/gc/heap/live:bytes")
	for {
		old := w.peak.Load()
		if live <= old || w.peak.CompareAndSwap(old, live) {
			return
		}
	}
}

// stop disarms the watch and returns the peak live heap in bytes.
func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	w.sample()
	return w.peak.Load()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
