package main

import (
	"runtime"
	"syscall"
	"time"
)

// This file is the benchmark's only contact with the host: the wall
// clock, the allocator's counters and the process's peak memory. The rest
// of the package sees nanosecond integers and counts.

var clockBase = time.Now() //lint:allow walltime the benchmark measures host time; every reading goes through nowNs

// nowNs returns monotonic host nanoseconds since process start.
func nowNs() int64 {
	return int64(time.Since(clockBase)) //lint:allow walltime the one wall-clock read of the benchmark
}

// heapCounters are the allocator's monotonic counters.
type heapCounters struct {
	mallocs uint64
	bytes   uint64
}

func readHeap() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KB), or 0 where getrusage is unavailable.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Calibration kernel. Host times are reported in normalised seconds: a
// timed region's raw wall time is scaled by kernelNominalNs over the mean wall
// time of the kernel runs adjacent to it, so a slow phase of the shared host
// stretches the region and its yardstick alike.
//
// The sandbox this was written on has two kinds of slow phase. When a
// neighbour takes the CPU everything slows by the same factor. When a
// neighbour takes the cache and the memory bus, a pure ALU loop still repeats
// within 4% while a random walk over 8 MB swings by 36%, and a simulator run
// sits in between (log-log slope of Q9's wall time against the walk's:
// 0.4–0.8). So the kernel is a mix: the walk, about 60% of its time on a quiet
// host, then an ALU loop. Under a CPU hog, a memory hog or neither, Q9's
// normalised median stayed within ±8% on local, base-ddc and teleport, where
// raw wall time doubled and the walk alone over-corrected by up to 25%.
//
// The kernel is fixed — allocation-free, single-threaded — and may not be
// edited once numbers have been recorded against it: that rescales every host
// metric.
const (
	kernelWords     = 1 << 20   // the walk's buffer: 8 MB of uint64
	kernelWalkSteps = 4_500_000 // LCG-indexed reads
	kernelALUSteps  = 6_000_000 // xorshift rounds
	kernelNominalNs = 40_000_000
)

type kernel struct {
	buf     []uint64
	div     int // 1, or more to shorten the kernel for the smoke sizes
	sink    uint64
	samples []int64 // every run's wall ns, for harness.calib_ms.*
}

func newKernel(div int) *kernel {
	k := &kernel{buf: make([]uint64, kernelWords), div: div, samples: make([]int64, 0, 4096)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.buf {
		x = x*6364136223846793005 + 1442695040888963407
		k.buf[i] = x >> 11
	}
	k.run() // first touch of the pages is not a measurement
	k.samples = k.samples[:0]
	return k
}

// run executes the kernel and returns its wall nanoseconds.
func (k *kernel) run() int64 {
	start := nowNs()
	buf, walk, alu := k.buf, kernelWalkSteps/k.div, kernelALUSteps/k.div
	x, acc := uint64(1), k.sink
	for i := 0; i < walk; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += buf[(x>>33)&(kernelWords-1)]
	}
	y := acc | 1
	for i := 0; i < alu; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
	}
	k.sink = y
	ns := nowNs() - start
	k.samples = append(k.samples, ns)
	return ns
}

// normalise converts raw nanoseconds to normalised seconds given the two
// adjacent kernel walls.
func (k *kernel) normalise(rawNs, kBefore, kAfter int64) float64 {
	mean := (float64(kBefore) + float64(kAfter)) / 2
	if mean <= 0 {
		return float64(rawNs) / 1e9
	}
	return float64(rawNs) / 1e9 * kernelNominalNs / float64(k.div) / mean
}

// calibMs summarises every kernel run so far, in milliseconds.
func (k *kernel) calibMs() (min, median, max float64) {
	ms := make([]float64, len(k.samples))
	for i, ns := range k.samples {
		ms[i] = float64(ns) / 1e6
		if ms[i] > max {
			max = ms[i]
		}
	}
	s := summarise(ms)
	return s.Min, s.Median, max
}
