package main

import (
	"fmt"
	"runtime"
	"sort"
)

// counts are exact layer counters read at a run's boundary, keyed by the
// per-layer metric they feed ("ddc.cache_hits", "netmodel.msgs", ...).
type counts map[string]int64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// outcome is everything about a run that must repeat exactly: simulated
// time, the answer's checksum and the layer counters.
type outcome struct {
	virtNs int64
	answer uint64
	counts counts
}

// runMeta names a run and says how it is checked.
type runMeta struct {
	name string
	// plat is the platform the run models; virt_speedup divides the
	// base-ddc runs' simulated time by their teleport twins'.
	plat string
	// key groups runs that must produce the same answer (one query on
	// several platforms); a teleport run's twin is the base-ddc run with
	// its key.
	key string
	// span names the run's span in the traced round.
	span string
	// seed is the seed the run's inputs were made from; 0 means the
	// invocation's. Runs made from goldenSeed are checked against
	// golden.json.
	seed int64
}

// runSample is one run in one round.
type runSample struct {
	meta    runMeta
	rawNs   int64
	normS   float64
	mallocs uint64
	bytes   uint64
	out     outcome
	failure string // empty when the run passed every check
}

// round is one pass over a workload's runs: the workload body calls setup
// and run, which time the closures they are given.
type round struct {
	h        *harness
	runs     []runSample
	setupRaw int64
	setupS   float64
	expect   map[string]uint64 // key → the answer every run of that key must give
}

// harness owns the calibration kernel and the span recorder.
type harness struct {
	k    *kernel
	sz   sizes
	seed int64
	rec  *recorder // nil outside the traced round

	// kLast is the wall time of a kernel run that nothing has happened
	// since, or 0. Back-to-back regions share the kernel run between them.
	kLast int64
}

func newHarness(sz sizes, seed int64) *harness {
	return &harness{k: newKernel(sz.kernelDiv), sz: sz, seed: seed}
}

func (h *harness) kernelBefore() int64 {
	if h.kLast == 0 {
		h.kLast = h.k.run()
	}
	return h.kLast
}

func (h *harness) kernelAfter() int64 {
	h.kLast = h.k.run()
	return h.kLast
}

// freshRegion is region for a caller that has done untimed work since the
// last kernel run: it starts with a kernel run of its own.
func (h *harness) freshRegion(fn func()) (normS float64) {
	h.kLast = 0
	_, normS, _, _ = h.region(false, fn)
	return normS
}

// region times fn between two kernel runs and returns raw and normalised
// time plus the allocator's deltas. gcAfter folds a collection into the
// region (set-up pays for its own garbage); otherwise the collection runs
// before the clock starts, so a region never inherits its predecessor's.
func (h *harness) region(gcAfter bool, fn func()) (rawNs int64, normS float64, mallocs, bytes uint64) {
	k0 := h.kernelBefore()
	if !gcAfter {
		runtime.GC()
	}
	m0 := readHeap()
	t0 := nowNs()
	fn()
	if gcAfter {
		runtime.GC()
	}
	rawNs = nowNs() - t0
	m1 := readHeap()
	k1 := h.kernelAfter()
	return rawNs, h.k.normalise(rawNs, k0, k1), m1.mallocs - m0.mallocs, m1.bytes - m0.bytes
}

// setup times fn as set-up: outside every timed region, inside setup_s.
func (r *round) setup(fn func()) {
	raw, norm, _, _ := r.h.region(true, func() { r.h.rec.in("setup", fn) })
	r.setupRaw += raw
	r.setupS += norm
}

// span runs fn inside a named span of the traced round.
func (r *round) span(name string, fn func()) { r.h.rec.in(name, fn) }

// run times fn as one run of the workload, then calls after — outside the
// timed region — for the run's exact outcome. An error or a panic from
// either fails the run; its outcome is then ignored by the exactness checks.
func (r *round) run(meta runMeta, fn func() error, after func() (outcome, error)) {
	if rec := r.h.rec; rec != nil {
		rec.run = meta.name
		defer func() { rec.run = "" }()
	}
	if meta.seed == 0 {
		meta.seed = r.h.seed
	}
	s := runSample{meta: meta}
	var err error
	guard := func(f func()) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		f()
	}
	s.rawNs, s.normS, s.mallocs, s.bytes = r.h.region(false, func() {
		guard(func() {
			sp := r.h.rec.begin(meta.span)
			defer r.h.rec.end(sp)
			err = fn()
		})
	})
	if err == nil {
		guard(func() { s.out, err = after() })
	}
	if err != nil {
		s.failure = err.Error()
	} else if want, ok := r.expect[meta.key]; ok && want != s.out.answer {
		s.failure = fmt.Sprintf("answer %#x, want %#x (same query on another platform or fault-free)", s.out.answer, want)
	} else if !ok && meta.key != "" {
		r.expect[meta.key] = s.out.answer
	}
	r.runs = append(r.runs, s)
}

// workload is one of the benchmark's seven.
type workload struct {
	name string
	why  string
	// prepare runs once per process before the first round (reference
	// answers); it is not timed.
	prepare func(h *harness) map[string]uint64
	// body performs one round.
	body func(r *round)
	// everyNth runs the workload in rounds 0, n, 2n, ... of a full
	// invocation (0 or 1: every round).
	everyNth int
}

// runRound executes one round of w; ref is prepare's result.
func (h *harness) runRound(w *workload, ref map[string]uint64) *round {
	r := &round{h: h, expect: make(map[string]uint64)}
	for k, v := range ref {
		r.expect[k] = v
	}
	if h.rec != nil {
		h.rec.workload = w.name
	}
	h.kLast = 0
	top := h.rec.begin("round")
	w.body(r)
	h.rec.end(top)
	return r
}

// endToEnd returns the round's end-to-end samples.
func (r *round) endToEnd() map[string]float64 {
	var host float64
	var mallocs, bytes uint64
	for _, s := range r.runs {
		host += s.normS
		mallocs += s.mallocs
		bytes += s.bytes
	}
	return map[string]float64{
		"host_s":        host,
		"host_mallocs":  float64(mallocs),
		"host_alloc_mb": float64(bytes) / 1e6,
		"setup_s":       r.setupS,
	}
}

// rawHostS is the round's timed regions in raw seconds.
func (r *round) rawHostS() float64 {
	var ns int64
	for _, s := range r.runs {
		ns += s.rawNs
	}
	return float64(ns) / 1e9
}

// virt returns the round's simulated seconds and the base-ddc ÷ teleport
// ratio over its pairs (0 when the workload has no pair).
func (r *round) virt() (seconds, speedup float64) {
	base := make(map[string]int64)
	var total int64
	for _, s := range r.runs {
		total += s.out.virtNs
		if s.meta.plat == "base-ddc" {
			base[s.meta.key] = s.out.virtNs
		}
	}
	var num, den int64
	for _, s := range r.runs {
		if b, ok := base[s.meta.key]; ok && s.meta.plat == "teleport" {
			num += b
			den += s.out.virtNs
		}
	}
	if den > 0 {
		speedup = float64(num) / float64(den)
	}
	return float64(total) / 1e9, speedup
}

// totalCounts sums the runs' layer counters.
func (r *round) totalCounts() counts {
	c := make(counts)
	for _, s := range r.runs {
		c.add(s.out.counts)
	}
	return c
}

// diffExact lists how this round's exact results differ from first's.
func (r *round) diffExact(first *round) []string {
	var out []string
	if len(r.runs) != len(first.runs) {
		return []string{fmt.Sprintf("%d runs, first round had %d", len(r.runs), len(first.runs))}
	}
	for i, s := range r.runs {
		f := first.runs[i]
		if s.failure != "" || f.failure != "" {
			continue
		}
		if s.out.virtNs != f.out.virtNs {
			out = append(out, fmt.Sprintf("%s: virtual ns %d, first round %d", s.meta.name, s.out.virtNs, f.out.virtNs))
		}
		if s.out.answer != f.out.answer {
			out = append(out, fmt.Sprintf("%s: answer %#x, first round %#x", s.meta.name, s.out.answer, f.out.answer))
		}
		for _, k := range sortedKeys(f.out.counts) {
			if s.out.counts[k] != f.out.counts[k] {
				out = append(out, fmt.Sprintf("%s: %s %d, first round %d", s.meta.name, k, s.out.counts[k], f.out.counts[k]))
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
