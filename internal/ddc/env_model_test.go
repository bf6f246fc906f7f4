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
		if m.carrier.Dilation != nil {
			ns *= m.carrier.Dilation()
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

// ReadU64s is the reference batched read: one word through the scalar path,
// then, with the hot line valid and the epoch unmoved, the words that end
// inside that line for a counter tick each.
func (m *modelEnv) ReadU64s(a mem.Addr, dst []uint64) {
	for i := 0; i < len(dst); {
		m.read(a, 8)
		dst[i] = m.space().ReadU64(a)
		i, a = i+1, a+8
		if !m.hotValid || m.fpEpoch != m.carrier.P.Epoch {
			continue
		}
		for end := (m.hotLine + 1) * m.lineB; i < len(dst) && uint64(a)+8 <= end; i, a = i+1, a+8 {
			dst[i] = m.space().ReadU64(a)
			m.reads++
		}
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

func (m *modelEnv) InvalidateFastPath() { m.fpValid, m.hotValid = false, false }

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
	InvalidateFastPath()
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

// logPager records every call before passing it on.
type logPager struct {
	inner Pager
	log   []pagerCall
}

func (lp *logPager) EnsurePage(e *Env, pg mem.PageID, write bool) {
	lp.log = append(lp.log, pagerCall{pg, write})
	lp.inner.EnsurePage(e, pg, write)
}

// Repeat logs the n calls it stands for.
func (lp *logPager) Repeat(e *Env, pg mem.PageID, write bool, n int) bool {
	for i := 0; i < n; i++ {
		lp.log = append(lp.log, pagerCall{pg, write})
	}
	return lp.inner.Repeat(e, pg, write, n)
}

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
	p      *Process
	th     *sim.Thread
	env    *Env // the access path under test, or the reference's carrier
	other  *Env // a second Env of the process, on a thread of its own
	path   accessPath
	pager  *logPager
	dilate int // Dilation calls so far
}

const (
	modelPages   = 48 // pages of the region a trace walks
	modelStreams = 12 // most interleaved streams in a trace
)

// modelConfigs are the machines a trace runs on; the last entry selects
// memory place with a restlessPager on a base-DDC machine. cacheLines sizes
// the on-chip cache model: small so that lines alias and evict each other,
// 0 for none, -1 for the testbed's.
var modelConfigs = []struct {
	name       string
	cfg        func() Config
	cacheLines int
}{
	{"linux", Linux, 64},
	{"linux-ssd", func() Config { return LinuxSSD(5 * mem.PageSize) }, 0},
	{"base-ddc", func() Config { return BaseDDC(6 * mem.PageSize) }, 16},
	{"base-ddc-roomy", func() Config { return BaseDDC(2 * modelPages * mem.PageSize) }, -1},
	{"base-ddc-fits", func() Config { return BaseDDC(modelPages * mem.PageSize) }, 64},
	{"memory-place", func() Config { return BaseDDC(6 * mem.PageSize) }, 64},
}

// newModelSide builds one process on configuration k. logged wraps the pager
// in a logPager; without it the Env keeps the pager the constructor gave it,
// so the monolithic no-dispatch shortcut is on the tested path too. dilated
// installs a Dilation whose value varies per call and which, like a yield to
// a thread that evicts a page, moves the epoch in the middle of some charges.
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
	var pager Pager = computePager{}
	if modelConfigs[k].name == "memory-place" {
		pager = &restlessPager{}
		s.env = s.p.RecycleMemoryEnv(nil, s.th, pager)
	} else {
		s.env = s.p.NewEnv(s.th)
	}
	if logged {
		s.pager = &logPager{inner: pager}
		s.env.pager, s.env.local = s.pager, false
	}
	if dilated {
		s.env.Dilation = func() float64 {
			s.dilate++
			if s.dilate%6 == 0 {
				s.p.Epoch++
			}
			return 1 + float64(s.dilate%4)/4
		}
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
// whether Dilation is installed, byte 2 whether pager calls are logged. Each
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
	nStreams, dilated, logged := 1+b1%modelStreams, b1&0x80 != 0, b2&1 == 0
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
			got, want = f(real.path), f(ref.path)
		}
		// Codes 13–15 wrap onto the first scalar operations.
		code := op % 16 % 13
		if op&0x10 != 0 { // a row loop: Rows against one scalar access at a time
			spec := newRowLoop(base, size, cursor[:nStreams], si, x, y, z)
			desc = spec.String()
			got, want = spec.run(real), spec.run(ref)
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
		case 11:
			desc = "epoch bump"
			real.p.Epoch++
			ref.p.Epoch++
		case 12:
			desc = "InvalidateFastPath"
			real.path.InvalidateFastPath()
			ref.path.InvalidateFastPath()
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
// streams, each on a cursor of its own.
type rowLoop struct {
	n       int
	ops     float64
	gather  bool // stream 0 is a list of indices
	streams []rowStream
	fire    uint64 // the rows, mod 64, in which the explicit stream is accessed
}

type rowStream struct {
	base  mem.Addr
	width int
	mode  StreamMode
}

// newRowLoop decodes a row loop from a trace operation's operands and moves
// the cursors of the streams it uses past it.
func newRowLoop(base mem.Addr, size int, cursor []int, si, x, y, z int) rowLoop {
	l := rowLoop{n: 1 + z>>1%70, ops: float64(x >> 2 % 8), gather: x&0x80 != 0, fire: uint64(x*251+y)*0x9E3779B97F4A7C15 | uint64(z)}
	m := min(1+x%rowStreams, len(cursor))
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
		case t > 0 && t == m-1 && (z&1 != 0 || l.ops == 0):
			st.mode |= StreamExplicit
		case l.ops == 0:
			st.mode |= StreamExplicit
		}
		// The widest a stream reaches: every row, at three times its number.
		cur := &cursor[(si+t)%len(cursor)]
		*cur = (*cur + st.width - 1) &^ (st.width - 1)
		if *cur+3*l.n*st.width > size {
			*cur = 0
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
		Streams []rowStream
	}{l.n, l.ops, l.gather, l.streams})
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
	// The loop swaps a Dilation that counts its calls for one that is, like
	// the pushdown runtime's, a function of state only a yield can change.
	if dil := side.env.Dilation; dil != nil {
		side.env.Dilation = func() float64 { return 1 + float64(side.p.Epoch%4)/4 }
		defer func() { side.env.Dilation = dil }()
	}
	value := func(i, t int) uint64 { return uint64(i)<<8 | uint64(t) | l.fire<<32 }
	fires := func(i int) bool { return l.fire>>(uint(i)%64)&1 != 0 }
	if m, ok := side.path.(*modelEnv); ok {
		pos := 0
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
					if !fires(i) {
						continue
					}
					if at = pos; l.fire>>59&1 != 0 {
						at = i // a conditional access at the row, not an append
					}
					pos++
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
	var ss [rowStreams]*Stream
	for t, st := range l.streams {
		if l.gather && t == 0 {
			rows.Gather(st.base)
			continue
		}
		ss[t] = rows.Stream(st.base, st.width, st.mode)
	}
	pos := 0
	for rows.Next() {
		for j := 0; j < rows.Len; j++ {
			i := rows.I + j
			for _, t := range l.order() {
				st := l.streams[t]
				var b []byte
				switch {
				case st.mode&StreamExplicit != 0:
					if !fires(i) {
						continue
					}
					at := pos
					if l.fire>>59&1 != 0 {
						at = i // a conditional access at the row, not an append
					}
					b = rows.Access(ss[t], j, at)
					pos++
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
	if real.dilate != ref.dilate {
		return fmt.Sprintf("Dilation called %d times, reference %d", real.dilate, ref.dilate)
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
	for cfg := range modelConfigs {
		for _, dilated := range []byte{0, 0x80} {
			header := []byte{byte(cfg), 3 | dilated, 0} // four streams, pager calls logged
			at := func(w0, w1 int) []byte { return read(read(header, 0, w0), 1, w1) }
			traces = append(traces,
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
		}
	}
	return traces
}

// TestEnvAccessMatchesReference replays seeded random traces — every
// configuration, 1–12 streams, scalar, ReadU64s and byte accesses that
// straddle lines and pages, Dilation, epoch bumps — through Env and the
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
