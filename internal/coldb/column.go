// Package coldb is a columnar in-memory DBMS in the style of MonetDB, the
// system the paper optimises in §5.1. Tables are sets of typed column
// vectors whose bytes live in the process's disaggregated address space, so
// every operator's access pattern — sequential scans for selection and
// projection, random probes for hash joins — flows through the paging and
// coherence models. Each relational operator has a plain implementation and
// a TELEPORT pushdown wrapper (Exec), mirroring the paper's "selective
// wrapping of existing function calls".
package coldb

import (
	"encoding/binary"
	"fmt"
	"math"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// Type is a column's storage type.
type Type int

// Column types.
const (
	I64 Type = iota // 8-byte signed integer (keys, counts)
	F64             // 8-byte float (prices, quantities)
	I32             // 4-byte signed integer (dates as day numbers, enums)
)

// Width returns the storage width in bytes.
func (t Type) Width() int {
	if t == I32 {
		return 4
	}
	return 8
}

// String names the type.
func (t Type) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	default:
		return "i32"
	}
}

// i64 decodes a stored value as an integer.
func (t Type) i64(b []byte) int64 {
	if t == I32 {
		return int64(int32(binary.LittleEndian.Uint32(b)))
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// f64 decodes a stored value as a float.
func (t Type) f64(b []byte) float64 {
	if t == F64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return float64(t.i64(b))
}

// putI64 stores an integer (narrowed to 32 bits in an I32 column).
func (t Type) putI64(b []byte, v int64) {
	if t == I32 {
		binary.LittleEndian.PutUint32(b, uint32(v))
		return
	}
	binary.LittleEndian.PutUint64(b, uint64(v))
}

// putF64 stores a float into an F64 column's element.
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

// Column is a fixed-width typed vector in disaggregated memory.
type Column struct {
	Name string
	Type Type
	Base mem.Addr
	N    int

	// over is the candidate list a temporary column was materialised over: its
	// values sit at the list's positions, not at the rows the list names.
	over *CandList
}

// NewColumn allocates a column of n values in the process's address space.
func NewColumn(p *ddc.Process, name string, t Type, n int) *Column {
	if n <= 0 {
		panic(fmt.Sprintf("coldb: column %q with %d rows", name, n))
	}
	base := p.Space.AllocPages(int64(n)*int64(t.Width()), "col:"+name)
	return &Column{Name: name, Type: t, Base: base, N: n}
}

// Addr returns the address of element i.
func (c *Column) Addr(i int) mem.Addr {
	return c.Base + mem.Addr(i*c.Type.Width())
}

// Bytes returns the column's total size.
func (c *Column) Bytes() int64 { return int64(c.N) * int64(c.Type.Width()) }

// I64At reads element i as int64 through the paging model: one positional
// access, for the row a hash chain, a join match or a foreign key names.
// Loops over rows in order go through a scan instead.
func (c *Column) I64At(env *ddc.Env, i int) int64 {
	if c.Type == I32 {
		return int64(env.ReadI32(c.Addr(i)))
	}
	return env.ReadI64(c.Addr(i))
}

// F64At is I64At decoding a float.
func (c *Column) F64At(env *ddc.Env, i int) float64 {
	switch c.Type {
	case F64:
		return env.ReadF64(c.Addr(i))
	case I32:
		return float64(env.ReadI32(c.Addr(i)))
	default:
		return float64(env.ReadI64(c.Addr(i)))
	}
}

// ColumnWriter fills a column front to back directly through the
// ground-truth space. Loading models the initial population of the buffer
// pool in the memory pool (data is *born remote* in a DDC), so it bypasses
// the compute cache and charges nothing. The writer borrows each page's
// frame once and stores into it, so a loader can write every value as it is
// generated instead of staging whole columns in slices first.
type ColumnWriter struct {
	space *mem.Space
	frame []byte   // what is left of the page being filled
	next  mem.Addr // address of the next value
	left  int      // values still to write
	typ   Type
}

// Writer returns a writer positioned at the column's first row.
func (c *Column) Writer(p *ddc.Process) ColumnWriter {
	return ColumnWriter{space: p.Space, next: c.Base, left: c.N, typ: c.Type}
}

// slot returns the bytes of the next value and steps past them. Values are
// aligned to their width, so none straddles a page.
func (w *ColumnWriter) slot() []byte {
	if w.left == 0 {
		panic("coldb: write past the end of a column")
	}
	w.left--
	if len(w.frame) == 0 {
		w.frame = w.space.Own(mem.PageOf(w.next))[w.next&(mem.PageSize-1):]
	}
	n := w.typ.Width()
	b := w.frame[:n]
	w.frame = w.frame[n:]
	w.next += mem.Addr(n)
	return b
}

// I64 appends an integer (narrowed to 32 bits in an I32 column).
func (w *ColumnWriter) I64(v int64) {
	if w.typ == I32 {
		binary.LittleEndian.PutUint32(w.slot(), uint32(int32(v)))
		return
	}
	binary.LittleEndian.PutUint64(w.slot(), uint64(v))
}

// F64 appends a float to an F64 column.
func (w *ColumnWriter) F64(v float64) {
	if w.typ != F64 {
		panic("coldb: F64 written to a " + w.typ.String() + " column")
	}
	putF64(w.slot(), v)
}

// LoadI64 bulk-writes vals into the column, bypassing the compute cache.
func (c *Column) LoadI64(p *ddc.Process, vals []int64) {
	if len(vals) != c.N {
		panic("coldb: LoadI64 length mismatch")
	}
	w := c.Writer(p)
	for _, v := range vals {
		w.I64(v)
	}
}

// LoadF64 bulk-writes float values, bypassing the compute cache.
func (c *Column) LoadF64(p *ddc.Process, vals []float64) {
	if len(vals) != c.N {
		panic("coldb: LoadF64 length mismatch")
	}
	w := c.Writer(p)
	for _, v := range vals {
		w.F64(v)
	}
}
