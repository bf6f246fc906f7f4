package ddc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"teleport/internal/mem"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// This file lock-steps Env's one-pass access path against the access path it
// replaced, kept here as the reference: touch running the paging state
// machine, chargeDRAM charging every line, the one-entry hot-line memo in
// front of both, and mem.Space's accessors moving the bytes. Two identical
// processes replay one trace, one through each; after every access they must
// agree on everything an access can observe or change.

// modelEnv is the reference access path. carrier is what the pager sees of
// it: the model's own thread and process.
type modelEnv struct {
	carrier *Env
	pager   Pager

	fpValid, fpWrite bool
	fpPage           mem.PageID
	fpEpoch          uint64

	hotValid, hotWrite bool
	hotLine            uint64

	lineB   uint64
	streams [dramStreams]uint64
	nStream int
	sClock  int
	l2      []uint64

	reads, writes int64
}

func (m *modelEnv) lineOf(x uint64) uint64 { return x / m.lineB }

func (m *modelEnv) touch(addr mem.Addr, n int, write bool) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
	p := m.carrier.P
	first, last := mem.PageSpan(addr, n)
	if first == last && m.fpValid && first == m.fpPage && m.fpEpoch == p.Epoch &&
		(!write || m.fpWrite) {
		m.chargeDRAM(addr, n, true)
		return
	}
	for pg := first; pg <= last; pg++ {
		m.pager.EnsurePage(m.carrier, pg, write)
	}
	m.fpValid, m.fpPage, m.fpWrite, m.fpEpoch = true, last, write, p.Epoch
	m.chargeDRAM(addr, n, first == last)
}

// hot reports whether an n-byte access at a falls inside the hot line with
// the epoch unchanged — then it is free and only the counter advances.
func (m *modelEnv) hot(a mem.Addr, n int, write bool) bool {
	if !m.hotValid || (write && !m.hotWrite) || m.fpEpoch != m.carrier.P.Epoch {
		return false
	}
	if m.lineOf(uint64(a)) != m.hotLine || m.lineOf(uint64(a)+uint64(n)-1) != m.hotLine {
		return false
	}
	if write {
		m.writes++
	} else {
		m.reads++
	}
	return true
}

func (m *modelEnv) chargeDRAM(addr mem.Addr, n int, single bool) {
	cfg := &m.carrier.P.M.Cfg.HW
	firstLine := m.lineOf(uint64(addr))
	lastLine := m.lineOf(uint64(addr) + uint64(n) - 1)
	m.hotValid = single
	if single {
		m.hotLine, m.hotWrite = lastLine, m.fpWrite
	}
	if m.l2 == nil && cfg.CacheLines > 0 {
		m.l2 = make([]uint64, cfg.CacheLines)
	}
	mask := uint64(len(m.l2) - 1)
	var ns float64
lines:
	for l := firstLine; l <= lastLine; l++ {
		for i := 0; i < m.nStream; i++ {
			switch m.streams[i] {
			case l:
				continue lines
			case l - 1:
				ns += cfg.DRAMSeqLineNs
				m.streams[i] = l
				if m.l2 != nil {
					m.l2[l&mask] = l
				}
				continue lines
			}
		}
		if m.l2 != nil && m.l2[l&mask] == l {
			ns += cfg.CacheHitNs
		} else {
			ns += cfg.DRAMRandNs
			if m.l2 != nil {
				m.l2[l&mask] = l
			}
		}
		if m.nStream < dramStreams {
			m.streams[m.nStream] = l
			m.nStream++
		} else {
			m.streams[m.sClock] = l
			m.sClock = (m.sClock + 1) % dramStreams
		}
	}
	if ns > 0 {
		if m.carrier.dil != nil {
			ns *= *m.carrier.dil
		}
		m.carrier.T.AdvanceNs(ns)
	}
}

func (m *modelEnv) read(a mem.Addr, n int) {
	if !m.hot(a, n, false) {
		m.touch(a, n, false)
	}
}

func (m *modelEnv) write(a mem.Addr, n int) {
	if !m.hot(a, n, true) {
		m.touch(a, n, true)
	}
}

func (m *modelEnv) space() *mem.Space { return m.carrier.P.Space }

func (m *modelEnv) ReadU64(a mem.Addr) uint64     { m.read(a, 8); return m.space().ReadU64(a) }
func (m *modelEnv) WriteU64(a mem.Addr, v uint64) { m.write(a, 8); m.space().WriteU64(a, v) }
func (m *modelEnv) ReadU32(a mem.Addr) uint32     { m.read(a, 4); return m.space().ReadU32(a) }
func (m *modelEnv) WriteU32(a mem.Addr, v uint32) { m.write(a, 4); m.space().WriteU32(a, v) }
func (m *modelEnv) ReadU8(a mem.Addr) byte {
	m.read(a, 1)
	var b [1]byte
	m.space().ReadAt(a, b[:])
	return b[0]
}
func (m *modelEnv) WriteU8(a mem.Addr, v byte) { m.write(a, 1); m.space().WriteAt(a, []byte{v}) }

func (m *modelEnv) ReadU64s(a mem.Addr, dst []uint64) {
	for i := range dst {
		dst[i] = m.ReadU64(a + mem.Addr(i)*8)
	}
}

func (m *modelEnv) ReadBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	m.touch(a, len(buf), false)
	m.space().ReadAt(a, buf)
}

func (m *modelEnv) WriteBytes(a mem.Addr, buf []byte) {
	if len(buf) == 0 {
		return
	}
	m.touch(a, len(buf), true)
	m.space().WriteAt(a, buf)
}

// forget drops the reference's one-page memo and hot line, as clearing
// fpValid drops the Env's.
func (m *modelEnv) forget() { m.fpValid, m.hotValid = false, false }

// recycle puts the reference in a new Env's state. A new Env's on-chip cache
// table reads as zeroed, so one the reference already holds is replaced by a
// zeroed one: RecycleMemoryEnv keeps its table and must zero it to match.
func (m *modelEnv) recycle() {
	l2 := m.l2
	if l2 != nil {
		l2 = make([]uint64, len(l2))
	}
	*m = modelEnv{carrier: m.carrier, pager: m.pager, lineB: m.lineB, l2: l2}
}

// accessPath is what a trace drives: Env and modelEnv both provide it.
type accessPath interface {
	ReadU64(mem.Addr) uint64
	WriteU64(mem.Addr, uint64)
	ReadU32(mem.Addr) uint32
	WriteU32(mem.Addr, uint32)
	ReadU8(mem.Addr) byte
	WriteU8(mem.Addr, byte)
	ReadU64s(mem.Addr, []uint64)
	ReadBytes(mem.Addr, []byte)
	WriteBytes(mem.Addr, []byte)
}

// pagerCall is one entry of the pager-call log.
type pagerCall struct {
	page  mem.PageID
	write bool
}

func (a pagerCall) compare(b pagerCall) int {
	if a.page != b.page {
		return cmp.Compare(a.page, b.page)
	}
	return cmp.Compare(trace.Flag(a.write), trace.Flag(b.write))
}

// logPager records every call before passing it on to the Env's own pager,
// if it has one.
type logPager struct {
	inner Pager
	log   []pagerCall
}

func (lp *logPager) EnsurePage(e *Env, pg mem.PageID, write bool) {
	lp.log = append(lp.log, pagerCall{pg, write})
	if lp.inner != nil {
		lp.inner.EnsurePage(e, pg, write)
	}
}

// Repeat logs the n calls it stands for.
func (lp *logPager) Repeat(e *Env, pg mem.PageID, write bool, n int) bool {
	for i := 0; i < n; i++ {
		lp.log = append(lp.log, pagerCall{pg, write})
	}
	return lp.inner == nil || lp.inner.Repeat(e, pg, write, n)
}

// refComputePager is the reference's compute-place pager: the reference
// pages through it whether its process has a cache or not, and it writes out
// what a hit does — move the page to the LRU head, count it and, for a store,
// set its dirty bit or upgrade a page held read-only — rather than taking it
// from computePager.Repeat. So a change to the hit, or to which Env gets a
// pager, shows against it. A miss is computePager's.
type refComputePager struct{}

func (refComputePager) EnsurePage(e *Env, pg mem.PageID, write bool) {
	c := e.P.Cache
	if c == nil {
		return // unlimited memory: nothing to page
	}
	n := c.entry(pg)
	if n == nil {
		computePager{}.EnsurePage(e, pg, write)
		return
	}
	c.moveToFront(int32(pg))
	e.P.stats.CacheHits++
	switch {
	case !write:
	case n.writable:
		n.dirty = true
	default:
		upgradeWrite(e, pg)
		c.MarkDirty(pg)
	}
}

// Repeat declines: the reference makes every call itself.
func (refComputePager) Repeat(*Env, mem.PageID, bool, int) bool { return false }

// restlessPager stands in for a pushdown's pager: it charges time and, on a
// fixed rhythm, moves the process epoch the way a coherence event does.
type restlessPager struct{ calls int }

func (rp *restlessPager) EnsurePage(e *Env, _ mem.PageID, write bool) {
	rp.calls++
	e.T.AdvanceNs(float64(40 + rp.calls%7))
	if rp.calls%5 == 0 || (write && rp.calls%3 == 0) {
		e.P.Epoch++
	}
}

// Repeat declines: every call charges time and some move the epoch.
func (rp *restlessPager) Repeat(*Env, mem.PageID, bool, int) bool { return false }

// modelSide is one of the two processes replaying a trace.
type modelSide struct {
	p     *Process
	th    *sim.Thread
	env   *Env // the access path under test, or the reference's carrier
	other *Env // a second Env of the process, on a thread of its own
	path  accessPath
	pager *logPager

	// With a scheduler (schedule), th is attached to it and what the trace
	// runs on th is handed to th's goroutine through ops, one at a time.
	sched *sim.Scheduler
	ops   chan func()
	done  chan struct{}
}

const (
	modelPages   = 48 // pages of the region a trace walks
	modelStreams = 12 // most interleaved streams in a trace

	// A scheduled side's windows are modelLookahead wide, and the thread
	// that shares th's domain moves the epoch every modelCoherence.
	modelLookahead = sim.Microsecond
	modelCoherence = 7 * sim.Microsecond
)

// schedule attaches the side's thread to a scheduler, the way a cluster
// machine's thread runs: th shares its domain with a thread that moves the
// process epoch every modelCoherence, like a coherence event, and a second
// domain holds a thread whose clock keeps th's windows modelLookahead wide.
// A charge past th's slack — the window's horizon or the other thread's
// quantum — would move a yield, and with it an epoch move, to another access
// than the reference's. It returns the function that ends the run.
func (s *modelSide) schedule() (stop func()) {
	sc := sim.NewScheduler()
	sc.SetLookahead(modelLookahead)
	m0, m1 := sc.NewDomain("m0"), sc.NewDomain("m1")
	s.sched, s.ops, s.done = sc, make(chan func()), make(chan struct{})
	halt, end := false, make(chan struct{})
	s.th = m0.Spawn("t", 0, func(*sim.Thread) {
		for f := range s.ops {
			f()
			s.done <- struct{}{}
		}
		halt = true
	})
	s.env.T = s.th
	m0.Spawn("coherence", 0, func(t *sim.Thread) {
		for !halt {
			t.Advance(modelCoherence)
			s.p.Epoch++
		}
	})
	m1.Spawn("window", 0, func(t *sim.Thread) {
		for !halt {
			t.Advance(modelLookahead / 3)
		}
	})
	go func() {
		sc.Run()
		close(end)
	}()
	return func() {
		close(s.ops)
		<-end
	}
}

// do runs f on the side's thread: on its goroutine when it is scheduled,
// where a charge may park it.
func (s *modelSide) do(f func()) {
	if s.ops == nil {
		f()
		return
	}
	s.ops <- f
	<-s.done
}

// modelConfigs are the machines a trace runs on. cacheLines sizes the
// on-chip cache model: small so that lines alias and evict each other, 0 for
// none, -1 for the testbed's. An entry with a memory pager runs the Env under
// test at memory place, where RecycleMemoryEnv lists the l2 slots it sets:
// with a restlessPager on a small base-DDC machine, or with the compute pager
// serving every page as a hit, so that row loops run quiet chunks and the
// testbed's l2 overflows the list inside a chunk's fill. The last has 32-byte
// DRAM lines, so that an explicit stream can step onto more lines of a page in
// one chunk than Rows lists.
var modelConfigs = []struct {
	name       string
	cfg        func() Config
	cacheLines int
	memory     func() Pager
}{
	{"linux", Linux, 64, nil},
	{"linux-ssd", func() Config { return LinuxSSD(5 * mem.PageSize) }, 0, nil},
	{"base-ddc", func() Config { return BaseDDC(6 * mem.PageSize) }, 16, nil},
	{"base-ddc-roomy", func() Config { return BaseDDC(2 * modelPages * mem.PageSize) }, -1, nil},
	{"base-ddc-fits", func() Config { return BaseDDC(modelPages * mem.PageSize) }, 64, nil},
	{"memory-place", func() Config { return BaseDDC(6 * mem.PageSize) }, 64,
		func() Pager { return &restlessPager{} }},
	{"memory-place-testbed", func() Config { return BaseDDC(2 * modelPages * mem.PageSize) }, -1,
		func() Pager { return computePager{} }},
	{"base-ddc-32b-lines", func() Config {
		c := BaseDDC(2 * modelPages * mem.PageSize)
		c.HW.DRAMLineBytes = 32
		return c
	}, 64, nil},
}

// newModelSide builds one process on configuration k. The Env under test
// keeps the pager its constructor gave it, or its lack of one, so an Env
// with none is on the tested path too; the reference pages through
// refComputePager instead of computePager, at compute place always. logged
// wraps either side's pager, or its lack of one, in a logPager. dilated
// points the Env's dilation at the process's PoolDilation, set to 1.25, at
// compute place too.
//
// The region holds regionFill. With img the process attaches to an image of
// it, as a figure cell attaches to its dataset; without, it allocates the
// region and stores the same bytes, as every process did before images — the
// reference side always does, so the two must agree on what a store to a page
// the image backs leaves behind, in the Env that made it and in another.
func newModelSide(k int, reference, logged, dilated bool, img *mem.Image) (*modelSide, mem.Addr) {
	cfg := modelConfigs[k].cfg()
	if n := modelConfigs[k].cacheLines; n >= 0 {
		cfg.HW.CacheLines = n
	}
	s := &modelSide{p: MustMachine(cfg).NewProcess(), th: sim.NewThread("t")}
	var base mem.Addr
	if img != nil {
		s.p.Attach(img)
		first, _, _ := s.p.Space.Extent()
		base = mem.Addr(first) << mem.PageShift
	} else {
		base = fillRegion(s.p.Space)
	}
	s.other = s.p.NewEnv(sim.NewThread("other"))
	memory := modelConfigs[k].memory
	if memory != nil {
		s.env = s.p.RecycleMemoryEnv(nil, s.th, memory())
	} else {
		s.env = s.p.NewEnv(s.th)
	}
	pager := s.env.pager
	if _, compute := pager.(computePager); reference && (compute || memory == nil) {
		pager = refComputePager{}
	}
	if logged {
		s.pager = &logPager{inner: pager}
		pager = s.pager
	}
	s.env.pager = pager
	if dilated {
		s.p.PoolDilation = 1.25
		s.env.dil = &s.p.PoolDilation
	}
	s.path = s.env
	if reference {
		s.path = &modelEnv{
			carrier: s.env, pager: s.env.pager,
			lineB: uint64(s.p.M.Cfg.HW.DRAMLineBytes),
		}
	}
	return s, base
}

// regionFill is what the region holds before a trace: page i is filled with a
// byte of its own, except every fifth, which is left untouched.
func regionFill(i int) []byte {
	if i%5 == 4 {
		return nil
	}
	return bytes.Repeat([]byte{byte(0x11 * (i%13 + 1))}, mem.PageSize)
}

// fillRegion allocates the region in an empty space and stores regionFill.
func fillRegion(s *mem.Space) mem.Addr {
	base := s.AllocPages(modelPages*mem.PageSize, "region")
	for i := 0; i < modelPages; i++ {
		if fill := regionFill(i); fill != nil {
			s.WriteAt(base+mem.Addr(i)*mem.PageSize, fill)
		}
	}
	return base
}

// traceReader hands out a trace's bytes; past the end it reads zeroes.
type traceReader struct {
	data []byte
	pos  int
}

func (r *traceReader) done() bool { return r.pos >= len(r.data) }

func (r *traceReader) byte() int {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// runAccessModel replays the trace encoded in data on both paths and fails on
// the first access after which they differ. It returns the accesses replayed.
//
// Byte 0 picks the configuration, byte 1 the number of streams (1–12) and
// whether the Env is dilated, byte 2 whether pager calls are logged and
// whether the Envs' threads are attached to schedulers (schedule). Each
// operation is then five bytes: opcode, stream, and operands x, y, z. A
// stream is a cursor over the shared region: accesses advance it by their
// size, so a stream is sequential until an operation jumps it (opcode bit
// 0x40), and bit 0x20 pulls an access off its natural alignment so that
// scalars straddle lines and pages.
//
// With attached the Env under test runs in a process attached to an image of
// the region, the reference in one that stored the region itself.
func runAccessModel(t testing.TB, data []byte, attached bool) int {
	r := &traceReader{data: data}
	k := r.byte() % len(modelConfigs)
	b1, b2 := r.byte(), r.byte()
	nStreams, dilated, logged, scheduled := 1+b1%modelStreams, b1&0x80 != 0, b2&1 == 0, b2&2 != 0
	var img *mem.Image
	if attached {
		src := mem.NewSpace()
		fillRegion(src)
		img = src.Freeze()
	}
	real, base := newModelSide(k, false, logged, dilated, img)
	ref, refBase := newModelSide(k, true, logged, dilated, nil)
	if base != refBase {
		t.Fatalf("the attached region is at %#x, the stored one at %#x", base, refBase)
	}
	if scheduled {
		defer real.schedule()()
		defer ref.schedule()()
	}
	const size = modelPages * mem.PageSize
	var cursor [modelStreams]int
	for i := range cursor {
		cursor[i] = i * (size / modelStreams)
	}

	accesses := 0
	for !r.done() {
		op, si, x, y, z := r.byte(), r.byte()%nStreams, r.byte(), r.byte(), r.byte()
		cur := &cursor[si]
		if op&0x40 != 0 { // jump the stream
			*cur = (y<<8 | z) * 8 % size
		}
		if op&0x20 != 0 { // off alignment
			*cur += 1 + op>>7*2
		}
		// at returns the address of an n-byte access at the cursor, wrapped
		// into the region, and moves the cursor past it.
		at := func(n int) mem.Addr {
			if *cur+n > size {
				*cur = 0
			}
			a := base + mem.Addr(*cur)
			*cur += n
			return a
		}
		var got, want any
		desc := ""
		both := func(f func(accessPath) any) {
			real.do(func() { got = f(real.path) })
			ref.do(func() { want = f(ref.path) })
		}
		// Codes 13–15 wrap onto the first scalar operations, except that on
		// memory place 15 recycles the Env, and with schedulers 14 brings the
		// thread to x nanoseconds before its next yield.
		code := op % 16 % 13
		if op%16 == 15 && modelConfigs[k].memory != nil {
			code = 13
		}
		if op%16 == 14 && scheduled {
			code = 14
		}
		if op&0x10 != 0 { // a row loop: Rows against one scalar access at a time
			spec := newRowLoop(base, size, cursor[:nStreams], op, si, x, y, z)
			desc = spec.String()
			real.do(func() { got = spec.run(real) })
			ref.do(func() { want = spec.run(ref) })
			if real.pager != nil {
				// Rows reports a chunk's repeated pager calls stream by stream.
				slices.SortFunc(real.pager.log, pagerCall.compare)
				slices.SortFunc(ref.pager.log, pagerCall.compare)
			}
			code = 16
		}
		switch code {
		case 0:
			a := at(8)
			desc = fmt.Sprintf("ReadU64(%#x)", a)
			both(func(p accessPath) any { return p.ReadU64(a) })
		case 1: // the word the stream passed last, through the process's other Env
			*cur = max(*cur, 8) - 8
			a := at(8)
			desc = fmt.Sprintf("ReadU64(%#x) by the other Env", a)
			got, want = real.other.ReadU64(a), ref.other.ReadU64(a)
		case 2:
			a, v := at(8), uint64(x)*0x0101010101010101
			desc = fmt.Sprintf("WriteU64(%#x)", a)
			both(func(p accessPath) any { p.WriteU64(a, v); return nil })
		case 3:
			a := at(4)
			desc = fmt.Sprintf("ReadU32(%#x)", a)
			both(func(p accessPath) any { return p.ReadU32(a) })
		case 4:
			a, v := at(4), uint32(x)*0x01010101
			desc = fmt.Sprintf("WriteU32(%#x)", a)
			both(func(p accessPath) any { p.WriteU32(a, v); return nil })
		case 5:
			a := at(1)
			desc = fmt.Sprintf("ReadU8(%#x)", a)
			both(func(p accessPath) any { return p.ReadU8(a) })
		case 6:
			a, v := at(1), byte(x)
			desc = fmt.Sprintf("WriteU8(%#x)", a)
			both(func(p accessPath) any { p.WriteU8(a, v); return nil })
		case 7:
			n := 1 + x%40
			a := at(8 * n)
			desc = fmt.Sprintf("ReadU64s(%#x, %d)", a, n)
			both(func(p accessPath) any { dst := make([]uint64, n); p.ReadU64s(a, dst); return dst })
		case 8:
			n := 1 + (x<<8|y)%(2*mem.PageSize+100)
			a := at(n)
			desc = fmt.Sprintf("ReadBytes(%#x, %d)", a, n)
			both(func(p accessPath) any { buf := make([]byte, n); p.ReadBytes(a, buf); return buf })
		case 9:
			n, v := 1+(x<<8|y)%(2*mem.PageSize+100), byte(z)
			a := at(n)
			desc = fmt.Sprintf("WriteBytes(%#x, %d)", a, n)
			both(func(p accessPath) any {
				p.WriteBytes(a, bytes.Repeat([]byte{v}, n))
				return nil
			})
		case 10: // the word the stream passed last, again
			*cur = max(*cur, 8) - 8
			a := at(8)
			desc = fmt.Sprintf("ReadU64(%#x) again", a)
			both(func(p accessPath) any { return p.ReadU64(a) })
		case 11: // as a context acquired or released by another thread does
			desc = "epoch bump"
			for _, side := range []*modelSide{real, ref} {
				side.p.Epoch++
				if dilated {
					side.p.PoolDilation = 1 + float64(side.p.Epoch%4)/4
				}
			}
		case 12:
			desc = "one-page memo dropped"
			real.env.fpValid = false
			ref.path.(*modelEnv).forget()
		case 13: // the pushed function ends and the next one runs on its Env
			desc = "RecycleMemoryEnv"
			real.env = real.p.RecycleMemoryEnv(real.env, real.th, real.env.pager)
			ref.path.(*modelEnv).recycle()
		case 14:
			desc = fmt.Sprintf("%dns before the next yield", x)
			for _, side := range []*modelSide{real, ref} {
				side.do(func() { side.th.Advance(max(0, side.th.Slack()-sim.Time(x))) })
			}
		}
		accesses++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("access %d %s on %s: returned %v, reference %v", accesses, desc, modelConfigs[k].name, got, want)
		}
		if diff := compareModelSides(real, ref); diff != "" {
			t.Fatalf("access %d %s on %s (%d streams, dilated=%v): %s",
				accesses, desc, modelConfigs[k].name, nStreams, dilated, diff)
		}
	}
	for pg, last := mem.PageOf(base), mem.PageOf(base+size-1); pg <= last; pg++ {
		if !bytes.Equal(real.p.Space.Frame(pg), ref.p.Space.Frame(pg)) {
			t.Fatalf("%s: page %d differs from the reference after the trace", modelConfigs[k].name, pg)
		}
	}
	if attached {
		// Whatever the trace stored, the image holds what was frozen.
		sibling := mem.NewSpace()
		sibling.Attach(img, nil)
		for i := 0; i < modelPages; i++ {
			want := regionFill(i)
			if want == nil {
				want = make([]byte, mem.PageSize)
			}
			if !bytes.Equal(sibling.Frame(mem.PageOf(base)+mem.PageID(i)), want) {
				t.Fatalf("%s: the trace changed page %d of the image", modelConfigs[k].name, i)
			}
		}
	}
	return accesses
}

// rowLoop is one row-loop operation of a trace: n rows over up to four
// streams, each on a cursor of its own. A long loop (operand x bit 0x40) runs
// up to 1144 rows, so its quiet chunks run to a page end or the thread's
// slack; with operand z bit 0 its streams start 2, 4 and 6 pages after the
// first, at the same offset in the page, so that streams of equal width step
// their lines in the same rows onto lines that share an on-chip cache slot.
// The opcode's low bits, free in a row loop, declare up to three of the last
// streams explicit (bits 0–1; in a short loop operand z bit 0 declares at
// least one) and make them fire in every row (bit 2).
type rowLoop struct {
	n       int
	ops     float64
	gather  bool // stream 0 is a list of indices
	scalar  bool // declared with Rows.Scalar
	streams []rowStream
	fire    uint64 // the rows, mod 64, in which explicit stream 0 is accessed
	spread  int    // how far explicit stream t's rows are rotated from stream 0's, per t
	dense   bool   // explicit streams are accessed in every row
}

type rowStream struct {
	base  mem.Addr
	width int
	mode  StreamMode
}

// newRowLoop decodes a row loop from a trace operation's operands and moves
// the cursors of the streams it uses past it.
func newRowLoop(base mem.Addr, size int, cursor []int, op, si, x, y, z int) rowLoop {
	l := rowLoop{n: 1 + z>>1%70, ops: float64(x >> 2 % 8), gather: x&0x80 != 0, scalar: x&0x20 != 0,
		fire: uint64(x*251+y)*0x9E3779B97F4A7C15 | uint64(z), dense: op&4 != 0}
	l.spread = int(l.fire >> 56 % 8)
	long := x&0x40 != 0
	aliased := long && z&1 != 0
	explicit := op & 3 // the last streams that are explicit
	if long {
		l.n = 1 + z>>1*9
	} else if z&1 != 0 {
		explicit = max(explicit, 1)
	}
	m := min(1+x%rowStreams, len(cursor))
	first := 0 // stream 0's offset in the region
	for t := 0; t < m; t++ {
		st := rowStream{width: 4 + y>>t&1*4}
		if y>>(4+t)&1 != 0 && !l.gather { // a store could land in the index list
			st.mode = StreamWrite
		}
		switch {
		case l.gather && t == 0:
			st.width, st.mode = 4, 0
		case l.gather && z>>t&1 != 0:
			st.mode |= StreamIndexed
		case t > 0 && t >= m-explicit:
			st.mode |= StreamExplicit
		}
		// The widest a stream reaches: every row, at three times its number;
		// an aliased loop's first stream leaves room for the others after it.
		cur := &cursor[(si+t)%len(cursor)]
		reserve := 0
		switch {
		case aliased && t == 0:
			reserve = 2 * (m - 1) * mem.PageSize
		case aliased:
			*cur = first + 2*t*mem.PageSize
		}
		*cur = (*cur + st.width - 1) &^ (st.width - 1)
		if *cur+3*l.n*st.width+reserve > size {
			*cur = 0
		}
		if t == 0 {
			first = *cur
		}
		st.base = base + mem.Addr(*cur)
		*cur += l.n * st.width
		l.streams = append(l.streams, st)
	}
	return l
}

func (l rowLoop) String() string {
	return fmt.Sprintf("row loop %+v", struct {
		N       int
		Ops     float64
		Gather  bool
		Scalar  bool
		Dense   bool
		Streams []rowStream
	}{l.n, l.ops, l.gather, l.scalar, l.dense, l.streams})
}

// order lists the streams in the order a row accesses them: those Next
// accesses, then the explicit ones; a gathered index is read apart.
func (l rowLoop) order() (order []int) {
	for _, explicit := range []StreamMode{0, StreamExplicit} {
		for t, st := range l.streams {
			if st.mode&StreamExplicit == explicit && !(l.gather && t == 0) {
				order = append(order, t)
			}
		}
	}
	return order
}

// run executes the loop on one side — through Rows on the Env under test, one
// scalar access at a time on the reference — and returns what it read.
func (l rowLoop) run(side *modelSide) (sum uint64) {
	if l.gather {
		for i := 0; i < l.n; i++ { // the indices are data, put there uncharged
			side.p.Space.WriteU32(l.streams[0].base+mem.Addr(i*4), uint32(i*(1+int(l.fire>>60)%3)))
		}
	}
	value := func(i, t int) uint64 { return uint64(i)<<8 | uint64(t) | l.fire<<32 }
	fires := func(i, t int) bool { return l.dense || l.fire>>(uint(i+t*l.spread)%64)&1 != 0 }
	var pos [rowStreams]int // each explicit stream's next element, when appended to
	if m, ok := side.path.(*modelEnv); ok {
		for i := 0; i < l.n; i++ {
			idx := i
			if l.gather {
				idx = int(m.ReadU32(l.streams[0].base + mem.Addr(i*4)))
			}
			if l.ops > 0 {
				m.carrier.Compute(l.ops)
			}
			for _, t := range l.order() {
				st := l.streams[t]
				at := i
				switch {
				case st.mode&StreamExplicit != 0:
					if !fires(i, t) {
						continue
					}
					if at = pos[t]; l.fire>>59&1 != 0 {
						at = i // a conditional access at the row, not an append
					}
					pos[t]++
				case st.mode&StreamIndexed != 0:
					at = idx
				}
				a := st.base + mem.Addr(at*st.width)
				switch {
				case st.mode&StreamWrite != 0 && st.width == 8:
					m.WriteU64(a, value(i, t))
				case st.mode&StreamWrite != 0:
					m.WriteU32(a, uint32(value(i, t)))
				case st.width == 8:
					sum = sum*31 + m.ReadU64(a)
				default:
					sum = sum*31 + uint64(m.ReadU32(a))
				}
			}
		}
		return sum
	}
	rows := side.env.Rows(l.n, l.ops)
	if l.scalar {
		rows.Scalar()
	}
	var ss [rowStreams]*Stream
	for t, st := range l.streams {
		if l.gather && t == 0 {
			rows.Gather(st.base)
			continue
		}
		ss[t] = rows.Stream(st.base, st.width, st.mode)
	}
	for rows.Next() {
		for j := 0; j < rows.Len; j++ {
			i := rows.I + j
			for _, t := range l.order() {
				st := l.streams[t]
				var b []byte
				switch {
				case st.mode&StreamExplicit != 0:
					if !fires(i, t) {
						continue
					}
					at := pos[t]
					if l.fire>>59&1 != 0 {
						at = i // a conditional access at the row, not an append
					}
					b = rows.Access(ss[t], j, at)
					pos[t]++
				default:
					b = ss[t].Bytes()[j*st.width:]
				}
				switch {
				case st.mode&StreamWrite != 0 && st.width == 8:
					binary.LittleEndian.PutUint64(b, value(i, t))
				case st.mode&StreamWrite != 0:
					binary.LittleEndian.PutUint32(b, uint32(value(i, t)))
				case st.width == 8:
					sum = sum*31 + binary.LittleEndian.Uint64(b)
				default:
					sum = sum*31 + uint64(binary.LittleEndian.Uint32(b))
				}
			}
		}
	}
	return sum
}

// compareModelSides returns what differs between the Env under test and the
// reference after an access, or "".
func compareModelSides(real, ref *modelSide) string {
	e, m := real.env, ref.path.(*modelEnv)
	if real.th.Now() != ref.th.Now() {
		return fmt.Sprintf("thread clock %v, reference %v", real.th.Now(), ref.th.Now())
	}
	if r, w := e.Accesses(); r != m.reads || w != m.writes {
		return fmt.Sprintf("Accesses() = %d, %d, reference %d, %d", r, w, m.reads, m.writes)
	}
	if real.pager != nil {
		// Each access's calls are compared once, then dropped.
		if !slices.Equal(real.pager.log, ref.pager.log) {
			return fmt.Sprintf("pager calls %v, reference %v", real.pager.log, ref.pager.log)
		}
		real.pager.log, ref.pager.log = real.pager.log[:0], ref.pager.log[:0]
	}
	if e.fpValid != m.fpValid || e.fpValid && (e.fpPage != m.fpPage || e.fpWrite != m.fpWrite || e.fpEpoch != m.fpEpoch) {
		return fmt.Sprintf("page memo %v/%d/%v/%d, reference %v/%d/%v/%d",
			e.fpValid, e.fpPage, e.fpWrite, e.fpEpoch, m.fpValid, m.fpPage, m.fpWrite, m.fpEpoch)
	}
	if e.streams != m.streams || e.nStream != m.nStream || e.sClock != m.sClock {
		return fmt.Sprintf("streams %v/%d/%d, reference %v/%d/%d",
			e.streams, e.nStream, e.sClock, m.streams, m.nStream, m.sClock)
	}
	if !slices.Equal(e.l2, m.l2) {
		return "on-chip cache model differs"
	}
	for _, e := range []*Env{e, real.other} {
		for i := 0; i < e.nStream; i++ {
			pg := mem.PageID(e.streams[i] >> (mem.PageShift - e.lineShift))
			if e.frames[i] == nil || &e.frames[i][0] != &real.p.Space.Frame(pg)[0] {
				return fmt.Sprintf("slot %d of %s's Env holds line %d but not page %d's frame", i, e.T.Name(), e.streams[i], pg)
			}
		}
	}
	if o, ro := real.other, ref.other; o.T.Now() != ro.T.Now() || o.streams != ro.streams || o.reads != ro.reads {
		return fmt.Sprintf("the other Env: clock %v, streams %v, %d reads; reference %v, %v, %d",
			o.T.Now(), o.streams, o.reads, ro.T.Now(), ro.streams, ro.reads)
	}
	if e.last >= dramStreams || (e.nStream > 0 && e.last >= e.nStream) {
		return fmt.Sprintf("last slot %d of %d", e.last, e.nStream)
	}
	if real.p.Epoch != ref.p.Epoch {
		return fmt.Sprintf("epoch %d, reference %d", real.p.Epoch, ref.p.Epoch)
	}
	if real.p.Stats() != ref.p.Stats() {
		return fmt.Sprintf("Stats() = %+v, reference %+v", real.p.Stats(), ref.p.Stats())
	}
	if real.sched != nil && real.sched.Switches() != ref.sched.Switches() {
		return fmt.Sprintf("%d thread switches, reference %d", real.sched.Switches(), ref.sched.Switches())
	}
	for _, c := range [][2]*PageCache{{real.p.Cache, ref.p.Cache}, {real.p.PoolRes, ref.p.PoolRes}} {
		if a, b := cacheOrder(c[0]), cacheOrder(c[1]); !slices.Equal(a, b) {
			return fmt.Sprintf("cache MRU order %v, reference %v", a, b)
		}
	}
	return ""
}

// cacheOrder lists a cache's pages with their bits, MRU first.
func cacheOrder(c *PageCache) (order []refNode) {
	if c != nil {
		c.Range(func(p mem.PageID, writable, dirty bool) bool {
			order = append(order, refNode{page: p, writable: writable, dirty: dirty})
			return true
		})
	}
	return order
}

// randomTrace draws a trace for runAccessModel: configuration and stream
// count from the seed, then operations whose mix leans towards interleaved
// sequential scalars, the shape operators produce.
func randomTrace(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{byte(seed), byte(rng.Intn(256)), byte(rng.Intn(256))}
	for n := 300 + rng.Intn(500); n > 0; n-- {
		op := byte(rng.Intn(16))
		if rng.Intn(3) > 0 {
			op = byte(rng.Intn(7)) // scalars
		}
		if rng.Intn(5) == 0 {
			op |= 0x10 // a row loop
		}
		if rng.Intn(12) == 0 {
			op |= 0x40
		}
		if rng.Intn(16) == 0 {
			op |= 0x20 | byte(rng.Intn(2))<<7
		}
		data = append(data, op, byte(rng.Intn(256)),
			byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// directedTraces are the cases where the slot the last charge ended on must
// not be mistaken for the ordered scan's first match: each ends on a line a
// later slot already holds, just after an earlier slot has come to hold its
// predecessor, so the line is a sequential charge to the earlier slot.
func directedTraces() [][]byte {
	// read jumps a stream to a word of the region (8 words to a line) and
	// reads it.
	read := func(trace []byte, stream, word int) []byte {
		return append(trace, 0x40, byte(stream), 0, byte(word>>8), byte(word))
	}
	header := []byte{0, 1, 0} // linux, two streams, pager calls logged

	// Slot 0 streams from line 2 into line 3 while slot 1 sits on line 4.
	advanced := read(read(read(read(header, 0, 16), 1, 32), 0, 24), 0, 33)

	// Eight slots fill, the last one on line 100 and read twice; line 99
	// then starts a new stream, which replaces slot 0.
	replaced := header
	for slot := 1; slot < dramStreams; slot++ {
		replaced = read(replaced, 0, 1000*slot)
	}
	replaced = read(read(read(read(replaced, 0, 800), 0, 801), 0, 792), 0, 802)
	traces := [][]byte{advanced, replaced}

	// Row loops, on every configuration, plain and dilated. loop appends one
	// of n rows charging 2 operations each over streams 0..m-1, of which wide
	// are 8 bytes wide and written are stored to, the last explicit or not.
	loop := func(trace []byte, m, n int, wide, written byte, explicit bool) []byte {
		z := byte(n-1) << 1
		if explicit {
			z |= 1
		}
		return append(trace, 0x10, 0, byte(m-1)|2<<2, wide|written<<4, z)
	}
	// long appends a long loop of 1+9·rows rows charging ops operations each
	// over streams 0..m-1, aliased or not.
	long := func(trace []byte, m, ops, rows int, wide, written byte, aliased bool) []byte {
		z := byte(rows) << 1
		if aliased {
			z |= 1
		}
		return append(trace, 0x10, 0, 0x40|byte(m-1)|byte(ops)<<2, wide|written<<4, z)
	}
	// write jumps a stream to a word and stores to it.
	write := func(trace []byte, stream, word int) []byte {
		return append(trace, 0x42, byte(stream), 0, byte(word>>8), byte(word))
	}
	const perPage = mem.PageSize / 8 // words
	for cfg := range modelConfigs {
		for _, dilated := range []byte{0, 0x80} {
			header := []byte{byte(cfg), 3 | dilated, 0} // four streams, pager calls logged
			at := func(w0, w1 int) []byte { return read(read(header, 0, w0), 1, w1) }
			traces = append(traces,
				// A word read, then stored to: on a DDC the store upgrades the
				// page the read faulted in read-only, on linux-ssd it is a hit
				// in the swap cache. Then a word of another page, and the
				// first page again: a hit that moves it to the LRU head.
				read(read(write(read(header, 0, 600), 0, 600), 1, 3000), 0, 601),
				// Two streams on adjacent lines, then both again a line on.
				loop(loop(at(8*20-1, 8*21-1), 2, 6, 3, 2, false), 2, 9, 3, 2, false),
				// Two streams on one page.
				loop(loop(at(100, 300), 2, 30, 3, 2, false), 2, 30, 3, 2, false),
				// A column that ends mid-line, 4- against 8-byte elements, then
				// the rest of the line by another loop.
				loop(loop(at(1000, 3000), 3, 13, 1, 4, false), 3, 5, 1, 4, false),
				// A run that crosses a page, and the next page's start.
				loop(loop(at(500, 2500), 2, 40, 3, 2, false), 2, 70, 3, 2, false),
				// An explicit stream: appended to in some rows, across its lines.
				loop(loop(loop(at(4000, 6000), 2, 100, 1, 2, true), 2, 100, 1, 2, true), 2, 100, 1, 2, true),
				// The other Env reads a word, memoising its page's frame; this
				// one stores the next word — on an image, moving the page to a
				// frame of its own — and the other reads what was stored; then
				// the same with the store made by a row loop's stream.
				append(read(header, 0, 700), 1, 0, 0, 0, 0, 2, 0, 0xAB, 0, 0, 1, 0, 0, 0, 0),
				append(loop(append(read(header, 0, 5000), 1, 0, 0, 0, 0), 1, 20, 1, 1, false), 1, 0, 0, 0, 0),
			)
			// Long loops, which declare no explicit stream: a scan that
			// charges no CPU per row, 1 081 words from word 456 across three
			// pages, whose first row steps to the line after the one just
			// read; two streams of 4-byte elements, one stored to; and
			// streams two pages apart at one offset, which step in the same
			// rows onto lines that share an on-chip cache slot, 8 bytes wide
			// and 4, once with a store.
			traces = append(traces,
				long(read(header, 0, 455), 1, 0, 120, 1, 0, false),
				long(at(3000, 7000), 2, 1, 100, 0, 2, false),
				long(read(header, 0, 2000), 2, 0, 110, 3, 0, true),
				long(read(header, 0, 6001), 2, 3, 70, 0, 0, true),
				long(read(header, 0, 9000), 3, 2, 90, 7, 4, true),
				// The same of 4-byte elements against 8-byte ones, either way
				// round: the wider stream reaches the slots they share sooner,
				// so which of the two steps onto a slot last flips partway
				// through them.
				long(read(header, 0, 3000), 2, 1, 100, 2, 0, true),
				long(read(header, 0, 7500), 2, 0, 100, 1, 1, true),
				// An explicit stream appended to from a line ahead of a stream
				// Next accesses, two pages on at the same offset: it steps onto
				// the slots they share first, then later. It is last accessed in
				// row 45 of 54, and the other stream's pager call in row 46
				// comes before its line step in that row: the call is made after
				// steps of both streams and before others.
				append(read(read(header, 0, 30*perPage+8*10+1), 1, 34*perPage+8*10+5), 0x10, 0, 21, 67, 53<<1|1),
			)
			// Long loops with explicit streams, whose quiet chunks run past
			// 64 rows: a selection, 4-byte elements read and appended to in
			// some rows at 3 operations a row; a group table's scan, 8-byte
			// keys and two 8-byte streams accessed in every row; and 4-byte
			// elements read and 8-byte ones appended in every row, which on
			// 32-byte lines steps onto more lines of a page in one chunk than
			// Rows lists.
			rowOp := func(trace []byte, op, x, y, z byte) []byte { return append(trace, op, 0, x, y, z) }
			traces = append(traces,
				rowOp(at(3000, 7000), 0x11, 0x40|1|3<<2, 0x20, 120<<1),
				rowOp(read(at(1000, 7000), 2, 4200), 0x16, 0x40|2|2<<2, 7, 120<<1),
				rowOp(at(3000, 7000), 0x15, 0x40|1, 0x22, 120<<1),
			)
			// A scan that charges no CPU per row, 70 words from word 451,
			// across the page at word 512, on a thread attached to a
			// scheduler and gap nanoseconds before its next yield; then the
			// same as a long scan of 1 081 words, which the slack cuts in
			// the middle of a page.
			for _, gap := range []byte{0, 20, 60, 250} {
				scan := slices.Clip(append(read([]byte{byte(cfg), dilated, 2}, 0, 450), 14, 0, gap, 0, 0))
				traces = append(traces, append(scan, 0x10, 0, 0, 1, 69<<1), long(scan, 1, 0, 120, 1, 0, false))
			}
		}
	}
	// Two streams of a short loop on linux, whose on-chip cache model holds a
	// page's lines, so that lines share a slot when they are at one offset in
	// their pages: each stream starts on the line a word was just read from or
	// on the next, 4 or 8 bytes wide, and the second from three lines before
	// the first's to three after. The lines a chunk steps the two onto share
	// no slot, one at either end of a range, or two, and in either order of
	// their steps.
	for _, n := range []int{15, 30} {
		for wide := byte(0); wide < 4; wide++ {
			for _, w0 := range []int{1, 7} {
				for _, w1 := range []int{1, 7} {
					for d := -3; d <= 3; d++ {
						at := read(read([]byte{0, 3, 0}, 0, 10*perPage+8*20+w0), 1, 14*perPage+8*(20+d)+w1)
						traces = append(traces, loop(at, 2, n, wide, 0, false))
					}
				}
			}
		}
	}
	// Memory place with the testbed's on-chip cache: four streams step onto
	// more lines than RecycleMemoryEnv lists, so the list overflows in the
	// middle of a chunk's fill; the recycle after each loop must clear them.
	recycle := []byte{15, 0, 0, 0, 0}
	for cfg := range modelConfigs {
		if modelConfigs[cfg].memory != nil {
			header := []byte{byte(cfg), 3, 0}
			traces = append(traces, append(long(append(long(header, 4, 0, 127, 15, 0, false), recycle...),
				3, 1, 60, 5, 2, false), recycle...))
		}
	}
	return traces
}

// TestEnvAccessMatchesReference replays seeded random traces — every
// configuration, 1–12 streams, scalar, ReadU64s and byte accesses that
// straddle lines and pages, PoolDilation, epoch bumps — through Env and the
// reference path side by side.
func TestEnvAccessMatchesReference(t *testing.T) {
	accesses := 0
	for _, attached := range []bool{false, true} {
		for _, trace := range directedTraces() {
			accesses += runAccessModel(t, trace, attached)
		}
		for seed := int64(0); seed < 250; seed++ {
			accesses += runAccessModel(t, randomTrace(seed), attached)
		}
	}
	if accesses < 2*250*150 {
		t.Fatalf("only %d accesses replayed; the traces are not being decoded as intended", accesses)
	}
}

func FuzzEnvAccessModel(f *testing.F) {
	f.Add([]byte{})
	for _, trace := range directedTraces() {
		f.Add(trace)
	}
	for seed := int64(0); seed < 2*int64(len(modelConfigs)); seed++ {
		f.Add(randomTrace(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			data = data[:1<<13]
		}
		runAccessModel(t, data, false)
		runAccessModel(t, data, true)
	})
}
