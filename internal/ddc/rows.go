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

// chunkRows bounds a chunk of quiet rows of a loop that declares an explicit
// stream, so that the rows in which such a stream was accessed, or stepped to
// its next line, fit a mask. A loop without one has no such bound: its
// streams are accessed in every row and step their lines on a fixed rhythm.
const chunkRows = 64

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
	// moves on as it makes the stream's line steps. A stream Next accesses is
	// accessed in every row and steps its slot to the next line in row 0 if
	// step0, then in row first and every 1<<(lineShift-shift) rows after it:
	// the rows whose element is the first of a line. An explicit stream keeps
	// masks instead, of the rows that accessed it and of those whose access
	// stepped its slot (cross); it has joined the run when mask is non-zero,
	// and then the cn bytes from clo are what is left of the line it is on.
	page        mem.PageID
	frame       *[mem.PageSize]byte
	slot        int
	line        uint64
	step0       bool
	first       int
	mask, cross uint64
	clo, cn     mem.Addr

	// flush's count of the stream's pager calls in the chunk, the row that
	// made the last of them, and the line steps it has made so far.
	calls, lastRow, made int
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
// thread would yield; in a loop that declares an explicit stream it is also at
// most chunkRows long. opsPerRow is a cost and nothing more: a loop that
// charges no CPU per row passes 0, and its rows are absorbed like any other's.
// A loop whose rows hold anything else (a random access, a Compute of its own)
// says so with Scalar. The loop must run until Next reports false, which
// accounts the last chunk. It moves a row's bytes in that same order: what
// Bytes and Access returned is the page's frame as it was then, and a later
// store of the row to a page still shared with a dataset image moves the page
// to another.
type Rows struct {
	e        *Env
	ops      float64
	opNs     float64 // ops at the Env's clock, undilated
	gather   bool    // stream 0 is the gathered index
	never    bool    // no row is absorbed (Scalar)
	explicit bool    // some stream is StreamExplicit

	N   int // rows in the loop
	I   int // first row of the current chunk
	Len int // rows in the current chunk
	Row int // the gathered index of row I, or I

	// The open chunk is a run of quiet rows, to be accounted by flush: d is a
	// row's CPU charge and step a line step's DRAM charge in it, and left what
	// the thread could still be charged before it would yield.
	open    bool
	d, step sim.Time
	left    sim.Time

	s  [rowStreams]Stream
	ns int
}

// Rows returns the driver of a loop over rows 0..n-1 that charges ops CPU
// operations per row (see Rows).
func (e *Env) Rows(n int, ops float64) Rows {
	return Rows{e: e, ops: ops, opNs: hw.OpNs(e.ClockGHz, ops), N: n}
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
	r.explicit = r.explicit || mode&StreamExplicit != 0
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
	if r.ops > 0 {
		r.e.Compute(r.ops)
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
	if r.explicit {
		k = min(k, chunkRows)
	}
	paged := e.paged()
	streams := r.s[:r.ns]
	var at [rowStreams]mem.Addr // row I's element of each stream Next accesses
	for i := range streams {
		s := &streams[i]
		s.mask, s.cross = 0, 0
		if s.mode&StreamExplicit == 0 {
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
	if e.Dilation != nil {
		dil := e.Dilation()
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
// explicit stream steps: their CPU cost and the line steps of the streams
// Next accesses.
func (r *Rows) cost(k int) sim.Time {
	steps := 0
	for i := range r.s[:r.ns] {
		if s := &r.s[i]; s.mode&StreamExplicit == 0 {
			steps += r.steps(s, k)
		}
	}
	return sim.Time(k)*r.d + sim.Time(steps)*r.step
}

// steps returns how many of the first k rows of a quiet chunk step the slot of
// s to its next line.
func (r *Rows) steps(s *Stream, k int) (n int) {
	if s.mode&StreamExplicit != 0 {
		return bits.OnesCount64(s.cross &^ (^uint64(0) << uint(k)))
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
		if t := &r.s[i]; t != s && (t.mode&StreamExplicit == 0 || t.mask != 0) && t.page-(mem.PageOf(a)-1) <= 2 {
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
// agreeing. Otherwise the chunk ends with this row — the rows so far are
// accounted, and the access enters the model like the rest of the row's.
func (r *Rows) join(s *Stream, j int, a mem.Addr) bool {
	e := r.e
	row := uint64(1) << uint(j)
	switch {
	case a-s.clo < s.cn:
		s.mask |= row
		return true
	case s.mask != 0:
		if next := s.clo + s.cn; a-next < 1<<e.lineShift && next&(mem.PageSize-1) != 0 && r.left >= r.step {
			s.clo, s.cn = a, e.lineLeft(a)
			s.mask, s.cross = s.mask|row, s.cross|row
			r.left -= r.step
			return true
		}
	}
	if s.mask == 0 {
		if r.alone(s, a) && (!e.paged() || e.pager.Repeat(e, mem.PageOf(a), s.store(), 0)) {
			stepped := s.line != uint64(a)>>e.lineShift
			if !stepped || r.left >= r.step {
				s.page = mem.PageOf(a)
				s.clo, s.cn = a, e.lineLeft(a)
				s.mask = row
				if stepped {
					s.cross = row
					r.left -= r.step
				}
				return true
			}
		}
	}
	r.flush(j + 1)
	r.Len = j + 1
	return false
}

// flush accounts the first n rows of the open chunk as the scalar path would
// have left them and closes it. Row j charged its CPU cost first and then made
// its accesses, each asking the pager unless the one-page memo let it skip,
// and then, if it stepped to a new line, charging that; nothing else moved.
// So flush settles the access counts; the pager calls — replayed over the
// rows to count them per stream and to find each stream's last, because the
// pager keeps its pages in the order of their last calls and stamps them with
// the time — and the memo; the line steps, each entering the on-chip cache
// model, with every stream's slot moved once at the end; and the clock. A
// step's key is row × rowStreams + stream, the order the scalar path made the
// steps in, and a pager call has the key of the access that made it, which
// asked the pager before it charged its line. The calls split the chunk into
// phases (see phase), made in key order: all of a phase's steps come before
// its closing call and after the calls before it.
func (r *Rows) flush(n int) {
	e := r.e
	streams := r.s[:r.ns]
	rows := ^uint64(0) >> uint(64-min(n, 64)) // an explicit stream's rows
	differs := uint64(0)                      // bit j: rows j and j+1 differ in some stream
	for i := range streams {
		s := &streams[i]
		s.made = 0
		count := n
		if s.mode&StreamExplicit != 0 {
			s.mask, s.cross = s.mask&rows, s.cross&rows
			differs |= s.mask ^ s.mask>>1
			count = bits.OnesCount64(s.mask)
		}
		if s.store() {
			e.writes += int64(count)
		} else {
			e.reads += int64(count)
		}
	}
	// Replay the one-page memo over the rows. It is a function of the accesses
	// made so far, so in a run of rows that make the same accesses every row
	// after the first meets it as the first left it and makes the same calls:
	// one replay stands for them all. (Without a pager there are no calls to
	// make, but the memo is kept all the same.) A stream Next accesses is in
	// every row, so without explicit streams the rows are one run.
	for j := 0; j < n; {
		run := n - j
		if d := differs >> uint(j); d != 0 {
			run = min(run, bits.TrailingZeros64(d)+1)
		}
		r.replay(j, j, 1)
		if run > 1 {
			r.replay(j+1, j+run-1, run-1)
		}
		j += run
	}
	t0, made := e.T.Now(), 0
	for {
		due := r.pending()
		made += r.phase(min(due, n*rowStreams))
		if due == noCall {
			break
		}
		r.call(&streams[due%rowStreams], t0+sim.Time(made)*r.step)
	}
	e.T.AdvanceTo(t0 + sim.Time(n)*r.d + sim.Time(made)*r.step)
	for i := range streams {
		s := &streams[i]
		if s.mode&StreamExplicit == 0 || s.mask != 0 {
			e.streams[s.slot] = s.line
		}
		s.cn, s.mask = 0, 0
	}
	r.open = false
}

// phase makes the open chunk's line steps whose keys are below end that it
// has not made yet, and returns how many it made. A stream's steps are
// counted in closed form, and its lines are consecutive: its line moves on by
// the count, and its lines enter their on-chip cache slots in one pass, in
// the order the stream stepped onto them. Between streams, that pass is out
// of the scalar order, so the slots that two streams' lines of the phase
// share are then rewritten with the line of the step made last.
func (r *Rows) phase(end int) (made int) {
	e := r.e
	var c [rowStreams]int // each stream's steps in the phase
	for i := range r.s[:r.ns] {
		s := &r.s[i]
		// The rows whose access of s has a key below end.
		k := r.steps(s, (end-i+rowStreams-1)/rowStreams)
		if c[i] = k - s.made; c[i] > 0 {
			s.made = k
			s.line += uint64(c[i])
			made += c[i]
			if e.l2 != nil {
				e.fillL2(s.line-uint64(c[i])+1, s.line)
			}
		}
	}
	if e.l2 == nil || made == 0 {
		return made
	}
	// A stream's lines take a run of slots, as offsets from another's first
	// slot an interval that wraps at the table's end; two such meet in at most
	// two intervals.
	size := uint64(len(e.l2))
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
				r.rewrite(la+d, la+min(d+cb, ca), &c)
			}
			if d+cb > size {
				r.rewrite(la, la+min(d+cb-size, ca), &c)
			}
		}
	}
	return made
}

// rewrite sets the on-chip cache slots of lines from .. to-1 to the line of
// the last of the phase's steps onto them, by key; c holds each stream's steps
// in the phase, which end at its line.
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
			if key := r.stepRow(s, s.made-c[i]+int(off))*rowStreams + i; key > last {
				last, e.l2[x] = key, lo+off
			}
		}
	}
}

// stepRow returns the row of the chunk in which s makes its line step m,
// counted from 0.
func (r *Rows) stepRow(s *Stream, m int) int {
	if s.mode&StreamExplicit != 0 {
		c := s.cross
		for ; m > 0; m-- {
			c &= c - 1
		}
		return bits.TrailingZeros64(c)
	}
	if s.step0 {
		if m == 0 {
			return 0
		}
		m--
	}
	return s.first + m<<(r.e.lineShift-s.shift)
}

// replay runs row j's accesses past the one-page memo, counting each pager
// call it does not skip weight times and as made last in row last.
func (r *Rows) replay(j, last, weight int) {
	e := r.e
	for i := range r.s[:r.ns] {
		s := &r.s[i]
		if (s.mode&StreamExplicit == 0 || s.mask>>uint(j)&1 != 0) &&
			(s.page != e.fpPage || s.store() && !e.fpWrite) {
			s.calls += weight
			s.lastRow = last
			e.fpPage, e.fpWrite = s.page, s.store()
		}
	}
}

// noCall is pending's answer when flush has no pager call left to make.
const noCall = math.MaxInt

// pending returns the key of the earliest pager call flush counted and has not
// made yet — that of the access that made the stream's last call — or noCall.
func (r *Rows) pending() int {
	due := noCall
	for i := range r.s[:r.ns] {
		if s := &r.s[i]; s.calls > 0 {
			due = min(due, s.lastRow*rowStreams+i)
		}
	}
	return due
}

// call makes the pager calls flush counted for s, as one Repeat at the time
// of the last: base, the chunk's start plus the line steps made before it,
// plus the CPU charges of the rows up to its own.
func (r *Rows) call(s *Stream, base sim.Time) {
	e := r.e
	if e.paged() {
		e.T.AdvanceTo(base + sim.Time(s.lastRow+1)*r.d)
		if !e.pager.Repeat(e, s.page, s.store(), s.calls) {
			panic("ddc: pager declined a repeat it had agreed to")
		}
	}
	s.calls = 0
}
