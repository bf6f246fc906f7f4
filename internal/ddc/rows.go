package ddc

import (
	"encoding/binary"
	"math"
	"math/bits"

	"teleport/internal/hw"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// This file is the run-accounting primitive: a loop that visits rows in
// order, charges the same CPU cost for each and then touches one element of
// each of a few sequential operands enters the paging and DRAM models once per
// DRAM line instead of once per element. Most rows of such a loop are quiet:
// every operand's element lies in the line its prefetch stream is already on,
// so the row changes nothing in the model but counters, the clock and the
// position of its pages in the LRU order. Rows hands the loop its rows a chunk
// at a time — a run of quiet rows to decode straight from the borrowed page
// frames, or one row whose accesses it made the scalar way — and accounts a
// quiet chunk afterwards in closed form, each stream's line steps in one pass,
// to the same virtual nanosecond, hit count, eviction order and on-chip cache
// contents the one-access-at-a-time path would have left. A quiet chunk runs
// to its streams' nearest page end or to the thread's slack, whichever comes
// first, so a loop whose streams Next accesses alone is accounted once per
// page.

// rowStreams is the most operands one row loop declares.
const rowStreams = 4

// maxSteps is the most line steps an explicit stream makes in a chunk: one a
// line of its page at the testbed's 64-byte lines. With shorter lines a step
// past it ends the chunk, as a step the slack refuses does.
const maxSteps = mem.PageSize / 64

// StreamMode says how a row loop accesses one of its streams.
type StreamMode uint8

const (
	// StreamWrite marks a stream the loop stores to; the others it loads from.
	StreamWrite StreamMode = 1 << iota
	// StreamIndexed marks a stream accessed at the row's gathered index
	// (Rows.Gather) instead of at the row number.
	StreamIndexed
	// StreamExplicit marks a stream Next does not access: the loop does,
	// through Access, in the rows and at the elements it chooses.
	StreamExplicit
)

// Stream is one sequential operand of a row loop: consecutive elements of 4
// or 8 bytes.
type Stream struct {
	base  mem.Addr
	shift uint8 // log2 of the element width
	mode  StreamMode

	// win is the chunk's elements of a stream Next accesses.
	win []byte

	// In a run of quiet rows: the page the stream stays in and its frame, the
	// prefetch slot that follows it and the line that slot is on, which flush
	// moves on by the stream's line steps. A stream Next accesses is accessed
	// in every row and steps its slot to the next line in row 0 if step0, then
	// in row first and every 1<<(lineShift-shift) rows after it: the rows whose
	// element is the first of a line. An explicit stream keeps instead count,
	// how many times the loop accessed it, and stepRows[:nSteps], the rows of
	// the chunk whose access stepped its slot, in order. It has joined the run
	// when count is non-zero, and then the cn bytes from clo are what is left
	// of the line it is on; it stays in its page, so it steps at most once a
	// line of it.
	page     mem.PageID
	frame    *[mem.PageSize]byte
	slot     int
	line     uint64
	step0    bool
	first    int
	count    int
	nSteps   int
	stepRows [maxSteps]int32
	clo, cn  mem.Addr

	// The stream's pager calls in the chunk, counted as the memo is replayed,
	// and the row that made the last of them.
	calls, lastRow int
}

// store reports whether the loop stores to the stream.
func (s *Stream) store() bool { return s.mode&StreamWrite != 0 }

// Bytes returns the current chunk's elements of a stream Next accesses, row
// I's first.
func (s *Stream) Bytes() []byte { return s.win }

// Rows drives one row loop over an Env:
//
//	rows := env.Rows(n, opsPerRow)
//	in, out := rows.Stream(a, 8, 0), rows.Stream(b, 8, ddc.StreamWrite)
//	for rows.Next() {
//		copy(out.Bytes(), in.Bytes()) // rows I .. I+Len-1
//	}
//
// Each row reads its gathered index if the loop has one, is charged opsPerRow
// CPU operations, accesses its streams in declaration order — at the row
// number, or at the index — and after them any explicit streams the loop
// chooses to, also in declaration order and each at most once. A chunk of
// quiet rows ends at the first page end of a stream Next accesses or where the
// thread would yield, and an explicit stream that would leave its page ends it
// too. opsPerRow is a cost and nothing more: a loop that charges no CPU per
// row passes 0, and its rows are absorbed like any other's. A loop whose rows
// hold anything else (a random access, a Compute of its own) says so with
// Scalar. The loop must run until Next reports false, which accounts the last
// chunk. It moves a row's bytes in that same order: what Bytes and Access
// returned is the page's frame as it was then, and a later store of the row to
// a page still shared with a dataset image moves the page to another.
type Rows struct {
	e      *Env
	opNs   float64 // a row's CPU charge at the Env's clock, undilated
	gather bool    // stream 0 is the gathered index
	never  bool    // no row is absorbed (Scalar)

	N   int // rows in the loop
	I   int // first row of the current chunk
	Len int // rows in the current chunk
	Row int // the gathered index of row I, or I

	// The open chunk is a run of quiet rows, to be accounted by flush: d is a
	// row's CPU charge and step a line step's DRAM charge in it, left what
	// the thread could still be charged before it would yield, and replayed
	// how many of its rows the one-page memo has been run over (see replay).
	open     bool
	d, step  sim.Time
	left     sim.Time
	replayed int

	s  [rowStreams]Stream
	ns int
}

// Rows returns the driver of a loop over rows 0..n-1 that charges ops CPU
// operations per row (see Rows).
func (e *Env) Rows(n int, ops float64) Rows {
	return Rows{e: e, opNs: hw.OpNs(e.clock, ops), N: n}
}

// Gather makes the loop take each row's index from a list of uint32s at base,
// read before the row's CPU charge. Its rows are never absorbed: where the
// indexed streams land is up to the list.
func (r *Rows) Gather(base mem.Addr) {
	if r.ns > 0 {
		panic("ddc: Gather after Stream")
	}
	r.gather, r.never = true, true
	r.Stream(base, 4, 0)
}

// Scalar declares that the loop's rows make accesses of their own besides its
// streams', which Rows cannot account for: none of its rows is absorbed, Next
// makes each row's accesses the scalar way, and Access is a plain scalar
// accessor.
func (r *Rows) Scalar() { r.never = true }

// Stream declares the loop's next operand: elements of width bytes (4 or 8)
// from base, aligned to their width. A loop declares at most rowStreams of
// them, a gathered index among them.
func (r *Rows) Stream(base mem.Addr, width int, mode StreamMode) *Stream {
	if width != 4 && width != 8 || base&mem.Addr(width-1) != 0 {
		panic("ddc: row stream elements must be 4 or 8 bytes, aligned")
	}
	if r.ns == rowStreams {
		panic("ddc: a row loop declares at most 4 streams")
	}
	s := &r.s[r.ns]
	r.ns++
	*s = Stream{base: base, shift: uint8(bits.TrailingZeros(uint(width))), mode: mode}
	return s
}

// Next accounts the chunk that just ended and moves to the next: a run of
// quiet rows when row I starts one, otherwise that row alone, its accesses
// made one at a time. It reports whether there was a row left.
func (r *Rows) Next() bool {
	if r.open {
		r.flush(r.Len)
	}
	r.I += r.Len
	if r.I >= r.N {
		r.Len = 0
		return false
	}
	r.Row = r.I
	if !r.never {
		if r.Len = r.quiet(); r.Len > 0 {
			r.open = true
			return true
		}
	}
	r.Len = 1
	streams := r.s[:r.ns]
	if r.gather {
		r.Row = int(binary.LittleEndian.Uint32(r.scalar(&streams[0], r.I)))
		streams = streams[1:]
	}
	if r.opNs > 0 {
		r.e.advance(r.opNs)
	}
	for i := range streams {
		if s := &streams[i]; s.mode&StreamExplicit == 0 {
			at := r.I
			if s.mode&StreamIndexed != 0 {
				at = r.Row
			}
			s.win = r.scalar(s, at)
		}
	}
	return true
}

// scalar makes the one-at-a-time access of element i and returns its bytes.
func (r *Rows) scalar(s *Stream, i int) []byte {
	a := s.base + mem.Addr(i)<<s.shift
	return r.e.access(a, 1<<s.shift, s.store())[a&(mem.PageSize-1):][:1<<s.shift]
}

// quiet returns how many rows from I on are quiet, and sets the windows of the
// streams Next accesses over them. A row is quiet when running it one access
// at a time would charge its CPU cost without yielding and then find, for
// every access, the pager's answer unchanged and the line either under the
// stream's prefetch slot or next after it in the same page — so that the row
// cannot fault, starts no new prefetch stream, and at most steps its own
// slots forward for a sequential line charge each. That the scan of the slots
// finds the stream's own first is ensured the blunt way, by the stream being
// alone (see alone). A pager that declines is asked before the slots are
// scanned, so a loop it never lets run pays little for asking.
func (r *Rows) quiet() int {
	e := r.e
	if !e.fpValid || e.fpEpoch != e.P.Epoch {
		return 0
	}
	k := r.N - r.I
	paged := e.pager != nil
	streams := r.s[:r.ns]
	var at [rowStreams]mem.Addr // row I's element of each stream Next accesses
	for i := range streams {
		if s := &streams[i]; s.mode&StreamExplicit == 0 {
			at[i] = s.base + mem.Addr(r.I)<<s.shift
			s.page = mem.PageOf(at[i])
			if paged && !e.pager.Repeat(e, s.page, s.store(), 0) {
				return 0
			}
			k = min(k, int((mem.PageSize-at[i]&(mem.PageSize-1))>>s.shift))
		}
	}
	for i := range streams {
		if s := &streams[i]; s.mode&StreamExplicit == 0 {
			if !r.alone(s, at[i]) {
				return 0
			}
			// Row 0 steps the slot if that is still on the line before; after
			// it, so does every row whose element is the first of a line.
			s.step0 = s.line != uint64(at[i])>>e.lineShift
			s.first = int(e.lineLeft(at[i]) >> s.shift)
		}
	}
	ns, stepNs := r.opNs, e.P.M.Cfg.HW.DRAMSeqLineNs
	if e.dil != nil {
		dil := *e.dil
		ns, stepNs = ns*dil, stepNs*dil
	}
	r.d, r.step = sim.FromNs(ns), sim.FromNs(stepNs)
	slack := e.T.Slack()
	if r.cost(k) > slack {
		// Not that far: the most rows whose charges the slack covers (the
		// cost grows with the rows, so a bisection finds them).
		lo, hi := 0, k // cost(lo) ≤ slack < cost(hi)
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; r.cost(mid) <= slack {
				lo = mid
			} else {
				hi = mid
			}
		}
		if k = lo; k == 0 {
			return 0
		}
	}
	r.left = slack - r.cost(k)
	for i := range streams {
		if s := &streams[i]; s.mode&StreamExplicit == 0 {
			off := at[i] & (mem.PageSize - 1)
			s.win = s.frame[off : off+mem.Addr(k)<<s.shift]
		}
	}
	return k
}

// cost returns what the first k rows of a quiet chunk charge before any
// explicit stream joins it: their CPU cost and their line steps.
func (r *Rows) cost(k int) sim.Time {
	return sim.Time(k)*r.d + sim.Time(r.stepsBelow(k*rowStreams))*r.step
}

// stepsBelow returns how many of the open chunk's line steps have a key below
// key (see flush).
func (r *Rows) stepsBelow(key int) (n int) {
	for i := range r.s[:r.ns] {
		// The rows whose access of stream i has a key below key.
		n += r.steps(&r.s[i], (key-i+rowStreams-1)/rowStreams)
	}
	return n
}

// steps returns how many of the first k rows of a quiet chunk step the slot of
// s to its next line.
func (r *Rows) steps(s *Stream, k int) (n int) {
	if s.mode&StreamExplicit != 0 {
		for n < s.nSteps && int(s.stepRows[n]) < k {
			n++
		}
		return n
	}
	if s.step0 && k > 0 {
		n++
	}
	if k > s.first {
		n += (k-1-s.first)>>(r.e.lineShift-s.shift) + 1
	}
	return n
}

// lineLeft returns the bytes from a to the end of its DRAM line.
func (e *Env) lineLeft(a mem.Addr) mem.Addr {
	return (a>>e.lineShift+1)<<e.lineShift - a
}

// alone reports whether the loop's stream s, about to access a, can run
// quietly through the rest of a's page: exactly one prefetch slot is on a line
// of the page or next to it, that slot is on a's line or the one before it in
// the page, and no other stream of the chunk is in this page or the next to
// it. Then whatever line of the page the stream asks for, the ordered scan of
// the slots matches that slot and no other — none is near enough — wherever
// the chunk's other streams have stepped theirs meanwhile, since those stay in
// pages of their own. It leaves the slot, its line and the page's frame in s.
func (r *Rows) alone(s *Stream, a mem.Addr) bool {
	e := r.e
	perPage := mem.PageShift - e.lineShift
	first := uint64(mem.PageOf(a)) << perPage // the page's lines are first .. first+1<<perPage-1
	s.slot = -1
	for q, l := range e.streams[:e.nStream] {
		if l-(first-1) <= 1<<perPage+1 {
			if s.slot >= 0 {
				return false
			}
			s.slot, s.line = q, l
		}
	}
	if l := uint64(a) >> e.lineShift; s.slot < 0 || s.line < first || l-s.line > 1 {
		return false
	}
	for i := range r.s[:r.ns] {
		if t := &r.s[i]; t != s && (t.mode&StreamExplicit == 0 || t.count > 0) && t.page-(mem.PageOf(a)-1) <= 2 {
			return false
		}
	}
	if s.store() && mem.PageOf(a) < e.P.Space.SharedEnd() {
		e.P.Space.Own(mem.PageOf(a)) // before the memo is read: Own moves it
	}
	s.frame = e.frames[s.slot]
	return true
}

// Access makes the loop's access of element i of an explicit stream in row
// I+j of the chunk and returns the element's bytes (and what follows them in
// the page). Outside a run of quiet rows that is a scalar access.
func (r *Rows) Access(s *Stream, j, i int) []byte {
	a := s.base + mem.Addr(i)<<s.shift
	if r.open && r.join(s, j, a) {
		return s.frame[a&(mem.PageSize-1):]
	}
	return r.e.access(a, 1<<s.shift, s.store())[a&(mem.PageSize-1):]
}

// join serves an explicit stream's access at a in row j of a run of quiet
// rows, and reports whether the access is quiet too: it stays in the line the
// stream is on, steps to the next line of the page, or is the stream's first
// of the chunk and finds the stream alone in its page with the pager
// agreeing — and a step fits the slack and the stream's list. Then the memo
// is run over the access, after the rows it has not been run over yet.
// Otherwise the chunk ends with this row — the rows so far are accounted, and
// the access enters the model like the rest of the row's.
func (r *Rows) join(s *Stream, j int, a mem.Addr) bool {
	e := r.e
	if a-s.clo >= s.cn {
		joined, next := s.count > 0, s.clo+s.cn
		ok := joined && a-next < 1<<e.lineShift && next&(mem.PageSize-1) != 0 ||
			!joined && r.alone(s, a) && (e.pager == nil || e.pager.Repeat(e, mem.PageOf(a), s.store(), 0))
		stepped := joined || s.line != uint64(a)>>e.lineShift
		if !ok || stepped && (r.left < r.step || s.nSteps == maxSteps) {
			r.flush(j + 1)
			r.Len = j + 1
			return false
		}
		if stepped {
			s.stepRows[s.nSteps] = int32(j)
			s.nSteps++
			r.left -= r.step
		}
		s.page, s.clo, s.cn = mem.PageOf(a), a, e.lineLeft(a)
	}
	r.replay(j)
	r.memo(s, j, 1)
	s.count++
	return true
}

// flush accounts the first n rows of the open chunk as the scalar path would
// have left them and closes it. Row j charged its CPU cost first and then made
// its accesses, each asking the pager unless the one-page memo let it skip,
// and then, if it stepped to a new line, charging that; nothing else moved.
// A step's key is row × rowStreams + stream, the order the scalar path made
// the steps in, and a pager call has the key of the access that made it,
// which asked the pager before it charged its line. So flush finishes the
// memo's replay, then makes each stream's pager calls as one Repeat, in the
// order of their last calls — the pager keeps its pages in that order and
// stamps them with the time — at the time of the last: the chunk's start plus
// the CPU charges of the rows up to its own and the line steps with lower
// keys. Repeat reads neither the on-chip cache model nor the prefetch slots,
// so the line steps follow, each stream's in one pass and its slot moved once
// at the end, with the access counts; and last the clock.
func (r *Rows) flush(n int) {
	e := r.e
	r.replay(n - 1)
	t0 := e.T.Now()
	for due := r.pending(); due != noCall; due = r.pending() {
		s := &r.s[due%rowStreams]
		if e.pager != nil {
			e.T.AdvanceTo(t0 + sim.Time(s.lastRow+1)*r.d + sim.Time(r.stepsBelow(due))*r.step)
			if !e.pager.Repeat(e, s.page, s.store(), s.calls) {
				panic("ddc: pager declined a repeat it had agreed to")
			}
		}
		s.calls = 0
	}
	var c [rowStreams]int // each stream's line steps in the chunk
	made := 0
	for i := range r.s[:r.ns] {
		s := &r.s[i]
		count := n
		if s.mode&StreamExplicit != 0 {
			count = s.count
		}
		if s.store() {
			e.writes += int64(count)
		} else {
			e.reads += int64(count)
		}
		if c[i] = r.steps(s, n); c[i] > 0 {
			s.line += uint64(c[i])
			made += c[i]
			if e.l2 != nil {
				e.fillL2(s.line-uint64(c[i])+1, s.line)
			}
		}
		if s.mode&StreamExplicit == 0 || s.count > 0 {
			e.streams[s.slot] = s.line
		}
		s.count, s.nSteps, s.cn = 0, 0, 0
	}
	if e.l2 != nil {
		r.shared(&c)
	}
	e.T.AdvanceTo(t0 + sim.Time(n)*r.d + sim.Time(made)*r.step)
	r.open, r.replayed = false, 0
}

// shared rewrites the on-chip cache slots that two streams' lines of the
// chunk share; c holds each stream's steps in the chunk, which end at its
// line. A stream's lines are consecutive and entered their slots in one pass,
// in the order the stream stepped onto them, but between streams that pass is
// out of the scalar order. A stream's lines take a run of slots, as offsets
// from another's first slot an interval that wraps at the table's end; two
// such meet in at most two intervals.
func (r *Rows) shared(c *[rowStreams]int) {
	size := uint64(len(r.e.l2))
	for a := range r.s[:r.ns] {
		if c[a] == 0 {
			continue
		}
		la, ca := r.s[a].line-uint64(c[a])+1, min(uint64(c[a]), size)
		for b := a + 1; b < r.ns; b++ {
			if c[b] == 0 {
				continue
			}
			d, cb := (r.s[b].line-uint64(c[b])+1-la)&(size-1), min(uint64(c[b]), size)
			if d < ca {
				r.rewrite(la+d, la+min(d+cb, ca), c)
			}
			if d+cb > size {
				r.rewrite(la, la+min(d+cb-size, ca), c)
			}
		}
	}
}

// rewrite sets the on-chip cache slots of lines from .. to-1 to the line of
// the last of the chunk's steps onto them, by key.
func (r *Rows) rewrite(from, to uint64, c *[rowStreams]int) {
	e := r.e
	mask := uint64(len(e.l2) - 1)
	for l := from; l < to; l++ {
		x, last := l&mask, -1
		for i := range r.s[:r.ns] {
			s := &r.s[i]
			lo := s.line - uint64(c[i]) + 1
			off := (x - lo) & mask
			if off >= uint64(c[i]) {
				continue
			}
			off += (uint64(c[i]) - 1 - off) &^ mask // the stream's last line on the slot
			if key := r.stepRow(s, int(off))*rowStreams + i; key > last {
				last, e.l2[x] = key, lo+off
			}
		}
	}
}

// stepRow returns the row of the chunk in which s makes its line step m,
// counted from 0.
func (r *Rows) stepRow(s *Stream, m int) int {
	if s.mode&StreamExplicit != 0 {
		return int(s.stepRows[m])
	}
	if s.step0 {
		if m == 0 {
			return 0
		}
		m--
	}
	return s.first + m<<(r.e.lineShift-s.shift)
}

// replay runs the one-page memo over the accesses of the streams Next
// accesses in the open chunk's rows up to j that it has not been run over.
// The first of those rows meets the memo as the accesses before it left it.
// The memo is a function of the accesses made so far, so the rows after it,
// which make the same accesses and no others, each meet it as the first left
// it and make the same calls: one run, weighted, stands for them all. (Without
// a pager there are no calls to make, but the memo is kept all the same.)
func (r *Rows) replay(j int) {
	if from := r.replayed; from <= j {
		r.replayRow(from, 1)
		if j > from {
			r.replayRow(j, j-from)
		}
		r.replayed = j + 1
	}
}

// replayRow runs the memo over the accesses of the streams Next accesses in
// a row, as made weight times and last in row last.
func (r *Rows) replayRow(last, weight int) {
	for i := range r.s[:r.ns] {
		if s := &r.s[i]; s.mode&StreamExplicit == 0 {
			r.memo(s, last, weight)
		}
	}
}

// memo runs an access of s past the one-page memo, counting the pager call it
// makes unless the memo lets it skip weight times and as made last in row
// last.
func (r *Rows) memo(s *Stream, last, weight int) {
	e := r.e
	if s.page != e.fpPage || s.store() && !e.fpWrite {
		s.calls += weight
		s.lastRow = last
		e.fpPage, e.fpWrite = s.page, s.store()
	}
}

// noCall is pending's answer when flush has no pager call left to make.
const noCall = math.MaxInt

// pending returns the key of the earliest pager call flush has not made yet —
// that of the access that made the stream's last call — or noCall.
func (r *Rows) pending() int {
	due := noCall
	for i := range r.s[:r.ns] {
		if s := &r.s[i]; s.calls > 0 {
			due = min(due, s.lastRow*rowStreams+i)
		}
	}
	return due
}
