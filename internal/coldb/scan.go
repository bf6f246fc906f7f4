package coldb

import (
	"encoding/binary"
	"fmt"

	"teleport/internal/ddc"
)

// scan is the loop every operator runs: over a candidate list's rows, or over
// [0, n) without one. It is a ddc.Rows whose operands are columns and
// candidate lists, so an operator writes its kernel once, over the chunk of
// rows Next hands it, and the rows that touch nothing new are charged by the
// run instead of by the element (see ddc.Rows).
type scan struct {
	ddc.Rows
	cand *CandList
}

// newScan returns the loop over cand's rows (or [0, n)) that charges ops
// operations per row. A loop whose rows hold a positional access is a
// scalarScan.
func newScan(env *ddc.Env, cand *CandList, n int, ops float64) scan {
	sc := scan{Rows: env.Rows(cand.Len(n), ops), cand: cand}
	if cand != nil {
		sc.Gather(cand.Base)
	}
	return sc
}

// scalarScan returns the loop over cand's rows (or [0, n)) whose rows each
// make a positional access and charge their own CPU, so that none is absorbed
// (ddc.Rows.Scalar).
func scalarScan(env *ddc.Env, cand *CandList, n int) scan {
	sc := newScan(env, cand, n, 0)
	sc.Scalar()
	return sc
}

// cursor is one column operand of a scan.
type cursor struct {
	s   *ddc.Stream
	typ Type
	at  *int // the element of the chunk's first row: the scan's Row, or its I
}

// operand declares c as the loop's next stream. A base column is accessed at
// the candidate row; a temporary one that was materialised over this same
// list, like everything the loop writes, at the row's position.
func (sc *scan) operand(c *Column, mode ddc.StreamMode) cursor {
	at := &sc.I
	if sc.cand != nil && c.over != sc.cand {
		mode |= ddc.StreamIndexed
		at = &sc.Row
	}
	return cursor{sc.Stream(c.Base, c.Type.Width(), mode), c.Type, at}
}

// read declares a column Next reads in every row.
func (sc *scan) read(c *Column) cursor { return sc.operand(c, 0) }

// output allocates the column the loop materialises — a value per row, at the
// row's position — and declares it: written by Next in every row, or, with
// ddc.StreamExplicit, by the loop once it has made the row's other accesses.
func (sc *scan) output(env *ddc.Env, name string, t Type, mode ddc.StreamMode) (*Column, cursor) {
	out := NewColumn(env.P, name, t, max(sc.N, 1))
	out.N, out.over = sc.N, sc.cand
	return out, sc.operand(out, mode|ddc.StreamWrite)
}

// at makes the loop's own access of an explicit stream in chunk row j — at
// the row or at its position, as operand decided — and returns the element.
func (sc *scan) at(c cursor, j int) []byte { return sc.Access(c.s, j, *c.at+j) }

// i64 decodes chunk row j as an integer.
func (c cursor) i64(j int) int64 { return c.typ.i64(c.s.Bytes()[j*c.typ.Width():]) }

// f64 decodes chunk row j as a float.
func (c cursor) f64(j int) float64 { return c.typ.f64(c.s.Bytes()[j*c.typ.Width():]) }

// setI64 stores an integer into chunk row j.
func (c cursor) setI64(j int, v int64) { c.typ.putI64(c.s.Bytes()[j*c.typ.Width():], v) }

// setF64 stores a float into chunk row j of an F64 column.
func (c cursor) setF64(j int, v float64) { putF64(c.s.Bytes()[j*8:], v) }

// fetch makes the one positional access a row of a join or a gather is for —
// element row of col, wherever that is — and then stores the value into the
// row's element of the explicit output to.
func (sc *scan) fetch(env *ddc.Env, to cursor, col *Column, row int) {
	if to.typ == F64 {
		v := col.F64At(env, row)
		putF64(sc.at(to, 0), v)
	} else {
		v := col.I64At(env, row)
		to.typ.putI64(sc.at(to, 0), v)
	}
}

// appender materialises a loop's qualifying rows into a candidate list, in
// the rows the loop chooses.
type appender struct {
	rows *ddc.Rows
	s    *ddc.Stream
	cl   *CandList
}

func (sc *scan) appendTo(cl *CandList) appender {
	return appender{&sc.Rows, sc.Stream(cl.Base, 4, ddc.StreamWrite|ddc.StreamExplicit), cl}
}

// add appends row in chunk row j. A list is allocated for the most entries
// its operator can produce; one more would land in the next allocation.
func (a appender) add(j, row int) {
	if a.cl.N == a.cl.cap {
		panic(fmt.Sprintf("coldb: candidate list %q overflows its %d entries", a.cl.name, a.cl.cap))
	}
	binary.LittleEndian.PutUint32(a.rows.Access(a.s, j, a.cl.N), uint32(row))
	a.cl.N++
}
