package mapreduce

import (
	"sort"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
)

// Phase names for pushdown sets and the Figure 10 profile. §5.3 splits the
// map phase: map-shuffle is "95% of map time" in a DDC and is the pushed
// sub-phase.
const (
	OpMapCompute = "MapCompute"
	OpMapShuffle = "MapShuffle"
	OpReduce     = "Reduce"
	OpMerge      = "Merge"
)

// Per-element CPU costs.
const (
	opsPerByte   = 0.4 // tokenising / pattern matching per input byte
	opsEmit      = 4
	opsShuffle   = 5
	opsReduceKV  = 6
	opsMergeStep = 5
)

// KV is one key-value record (16 bytes in disaggregated memory).
type KV struct {
	K, V int64
}

// kvBuf is an append-only record buffer in disaggregated memory.
type kvBuf struct {
	base mem.Addr
	n    int
}

func newKVBuf(p *ddc.Process, capacity int, name string) *kvBuf {
	return &kvBuf{base: p.Space.AllocPages(int64(capacity)*16, name)}
}

func (b *kvBuf) append(env *ddc.Env, kv KV) {
	a := b.base + mem.Addr(b.n*16)
	env.WriteI64(a, kv.K)
	env.WriteI64(a+8, kv.V)
	b.n++
}

func (b *kvBuf) get(env *ddc.Env, i int) KV {
	var pair [2]uint64
	env.ReadU64s(b.base+mem.Addr(i*16), pair[:])
	return KV{K: int64(pair[0]), V: int64(pair[1])}
}

// Job defines a MapReduce application: Map tokenises one input chunk and
// emits records; values of equal keys are summed by Reduce.
type Job interface {
	Name() string
	Map(env *ddc.Env, chunk []byte, lineBase int, emit func(k, v int64))
}

// Engine runs a Job over a Corpus with M map tasks and R reduce tasks.
type Engine struct {
	C        *Corpus
	Job      Job
	Mappers  int
	Reducers int

	staging    []*kvBuf // per-mapper map-compute output
	partitions []*kvBuf // per-reducer shuffle output
	results    []KV     // merged output (host copy of the final, tiny result)
}

// NewEngine prepares buffers for the given task counts.
func NewEngine(c *Corpus, job Job, mappers, reducers int) *Engine {
	if mappers < 1 {
		mappers = 1
	}
	if reducers < 1 {
		reducers = 1
	}
	return &Engine{C: c, Job: job, Mappers: mappers, Reducers: reducers}
}

// Results returns the merged (key, total) pairs sorted by key.
func (e *Engine) Results() []KV { return e.results }

// Run executes the four phases, recording each in ex.
func (e *Engine) Run(ex *profile.Exec) {
	ex.Run(OpMapCompute, func(env *ddc.Env) { e.mapCompute(env) })
	ex.Run(OpMapShuffle, func(env *ddc.Env) { e.mapShuffle(env) })
	ex.Run(OpReduce, func(env *ddc.Env) { e.reduce(env) })
	ex.Run(OpMerge, func(env *ddc.Env) { e.merge(env) })
}

// mapCompute streams each mapper's input chunk and applies the user map
// function, emitting records sequentially into the mapper's staging buffer.
func (e *Engine) mapCompute(env *ddc.Env) {
	c := e.C
	e.staging = make([]*kvBuf, e.Mappers)
	chunk := c.Len / int64(e.Mappers)
	var scratch []byte
	for m := 0; m < e.Mappers; m++ {
		lo := int64(m) * chunk
		hi := lo + chunk
		if m == e.Mappers-1 {
			hi = c.Len
		}
		// Snap to line boundaries (scan forward for the newline).
		lo = snapToLine(env, c, lo)
		hi = snapToLine(env, c, hi)
		if hi <= lo {
			e.staging[m] = newKVBuf(c.P, 1, "mr.stage")
			continue
		}
		scratch = c.ReadChunk(env, lo, hi, scratch)
		env.Compute(float64(len(scratch)) * opsPerByte)
		buf := newKVBuf(c.P, len(scratch)/3+1, "mr.stage")
		e.Job.Map(env, scratch, int(lo), func(k, v int64) {
			env.Compute(opsEmit)
			buf.append(env, KV{k, v})
		})
		e.staging[m] = buf
	}
}

func snapToLine(env *ddc.Env, c *Corpus, pos int64) int64 {
	if pos == 0 || pos >= c.Len {
		return minI64(pos, c.Len)
	}
	for pos < c.Len && env.ReadU8(c.Base+mem.Addr(pos-1)) != '\n' {
		pos++
	}
	return pos
}

// mapShuffle scatters every staged record to its reducer's partition —
// hash-partitioned writes striding across R distinct buffers, the
// data-intensive sub-component that dominates map time in a DDC (§5.3).
func (e *Engine) mapShuffle(env *ddc.Env) {
	total := 0
	for _, b := range e.staging {
		total += b.n
	}
	e.partitions = make([]*kvBuf, e.Reducers)
	for r := range e.partitions {
		e.partitions[r] = newKVBuf(e.C.P, total+1, "mr.part")
	}
	for _, b := range e.staging {
		for i := 0; i < b.n; i++ {
			env.Compute(opsShuffle)
			kv := b.get(env, i)
			r := int(uint64(kv.K)*0x9E3779B97F4A7C15>>33) % e.Reducers
			e.partitions[r].append(env, kv)
		}
	}
}

// reduce aggregates each partition by key with a growable in-space hash
// table sized by the number of *distinct* keys (like Phoenix, whose reduce
// touches far less data than the shuffle — Figure 10: 13 GB vs 181 GB), and
// rewrites the partition with one record per distinct key.
func (e *Engine) reduce(env *ddc.Env) {
	for r, part := range e.partitions {
		if part.n == 0 {
			continue
		}
		ht := newReduceTable(env, e.C.P, 512)
		for i := 0; i < part.n; i++ {
			env.Compute(opsReduceKV)
			kv := part.get(env, i)
			ht.add(env, kv.K, kv.V)
		}
		out := newKVBuf(e.C.P, ht.distinct+1, "mr.rout")
		ht.drain(env, func(kv KV) { out.append(env, kv) })
		e.partitions[r] = out
	}
}

// reduceTable is an open-addressing sum table that doubles when it passes
// 70% load.
type reduceTable struct {
	p        *ddc.Process
	nSlots   int
	keys     mem.Addr
	sums     mem.Addr
	distinct int
}

func newReduceTable(env *ddc.Env, p *ddc.Process, slots int) *reduceTable {
	t := &reduceTable{p: p}
	t.alloc(env, slots)
	return t
}

func (t *reduceTable) alloc(env *ddc.Env, slots int) {
	t.nSlots = slots
	t.keys = t.p.Space.AllocPages(int64(slots)*8, "mr.rkeys")
	t.sums = t.p.Space.AllocPages(int64(slots)*8, "mr.rsums")
	for i := 0; i < slots; i++ {
		// Table initialisation happens where the reducer runs.
		env.WriteI64(t.keys+mem.Addr(i*8), kvEmpty)
	}
}

func (t *reduceTable) add(env *ddc.Env, key, val int64) {
	if t.distinct*10 > t.nSlots*7 {
		t.grow(env)
	}
	slot := int(uint64(key)*0x9E3779B97F4A7C15>>32) & (t.nSlots - 1)
	for {
		k := env.ReadI64(t.keys + mem.Addr(slot*8))
		if k == key {
			break
		}
		if k == kvEmpty {
			env.WriteI64(t.keys+mem.Addr(slot*8), key)
			t.distinct++
			break
		}
		env.Compute(2)
		slot = (slot + 1) & (t.nSlots - 1)
	}
	a := mem.Addr(slot * 8)
	env.WriteI64(t.sums+a, env.ReadI64(t.sums+a)+val)
}

func (t *reduceTable) grow(env *ddc.Env) {
	oldKeys, oldSums, oldSlots := t.keys, t.sums, t.nSlots
	t.alloc(env, oldSlots*2)
	t.distinct = 0
	for i := 0; i < oldSlots; i++ {
		env.Compute(2)
		k := env.ReadI64(oldKeys + mem.Addr(i*8))
		if k == kvEmpty {
			continue
		}
		t.add(env, k, env.ReadI64(oldSums+mem.Addr(i*8)))
	}
}

func (t *reduceTable) drain(env *ddc.Env, f func(KV)) {
	for i := 0; i < t.nSlots; i++ {
		env.Compute(1)
		k := env.ReadI64(t.keys + mem.Addr(i*8))
		if k == kvEmpty {
			continue
		}
		f(KV{k, env.ReadI64(t.sums + mem.Addr(i*8))})
	}
}

const kvEmpty = int64(-0x7FFFFFFFFFFFFFF7)

// merge collects the reducers' outputs and sorts them by key (the final,
// comparatively small phase of Figure 10).
func (e *Engine) merge(env *ddc.Env) {
	var all []KV
	for _, part := range e.partitions {
		for i := 0; i < part.n; i++ {
			env.Compute(opsMergeStep)
			all = append(all, part.get(env, i))
		}
	}
	n := len(all)
	if n > 1 {
		env.Compute(float64(n) * logishF(n) * opsMergeStep)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].K < all[j].K })
	e.results = all
}

func logishF(n int) float64 {
	f := 1.0
	for n > 1 {
		n >>= 1
		f++
	}
	return f
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
