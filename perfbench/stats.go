package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used so far, user and system,
// over all threads. Under paravirtual time accounting it excludes time
// the host gave the CPU to another guest, which wall time includes; on a
// shared host that steal comes in bursts, so the benchmark's gated times
// are CPU times.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // getrusage(RUSAGE_SELF) cannot fail with a valid buffer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest fifth (0
// for an empty sample). Rounds of a run differ in their seeded programs,
// so averaging them cancels more of that difference than a median does,
// while the trim still drops a round that a burst of host load hit.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 5
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssSampler tracks the process's peak resident set size over one pass by
// polling /proc/self/statm, so each pass gets its own peak rather than the
// process-lifetime high-water mark, which depends on the worst of all
// passes' garbage-collection timing.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// rssInterval is how often the sampler polls; between polls the heap
// grows by at most a few MB.
const rssInterval = 2 * time.Millisecond

// startRSS starts a sampler.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		peak := residentMB()
		for {
			select {
			case <-s.stop:
				s.done <- math.Max(peak, residentMB())
				return
			case <-t.C:
				peak = math.Max(peak, residentMB())
			}
		}
	}()
	return s
}

// peakMB stops the sampler, waits for it to end and returns the pass's
// peak resident set size in MB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB is the process's current resident set size in MB, or where
// /proc is unavailable the memory the Go runtime holds from the OS.
func residentMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 2 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	m := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()-m[1].Value.Uint64()) / (1 << 20)
}
