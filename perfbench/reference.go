package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// referenceNominal is the reference kernel's CPU time on the 2-vCPU Xeon
// host the benchmark was calibrated on. The gated times are scaled by
// referenceNominal ÷ the kernel's median time in the run, so they read as
// CPU seconds on that host at its calibration-time speed.
const referenceNominal = 0.12

// Reference kernel working set: a counter table of 8 MB and 4 MB of keys.
const (
	refTableLen = 1 << 21
	refKeysLen  = 1 << 19
)

// referenceKernel is a fixed computation with the memory behaviour of the
// program's hot paths: random increments into a table larger than the
// caches, and a sort. On a shared host, neighbours slow memory-bound code
// by 10-30% for minutes at a time; the kernel slows with it, so the ratio
// of a workload's CPU time to the kernel's stays put while both drift.
// Its inputs are fixed: they do not depend on the workload seed.
//
// The working set is mapped outside the Go heap and unmapped afterwards,
// so the kernel neither triggers a collection (whose cost would depend on
// the workload's live heap) nor stays in the resident set.
func referenceKernel() (time.Duration, error) {
	const size = refTableLen*4 + refKeysLen*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, err
	}
	defer syscall.Munmap(mem)
	clear(mem) // fault the pages in before timing
	table := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refTableLen)
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[refTableLen*4])), refKeysLen)

	c0 := cpuTime()
	x := uint64(88172645463325252)
	for i := range keys {
		for j := 0; j < 5; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(refTableLen-1)]++
		}
		keys[i] = x
	}
	slices.Sort(keys)
	return cpuTime() - c0, nil
}
