// Package mapreduce is a shared-memory MapReduce engine in the style of
// Phoenix (§5.3). The input corpus, every intermediate key-value buffer,
// and the results live in the process's disaggregated address space. The
// map phase is split into map-compute (tokenising, CPU-heavy) and
// map-shuffle (scattering key-value records to per-reducer buffers,
// memory-heavy) exactly as §5.3 does, so that only the data-intensive
// sub-phase is Teleported.
package mapreduce

import (
	"math/rand"
	"strconv"

	"teleport/internal/ddc"
	"teleport/internal/mem"
)

// Corpus is a text dataset in disaggregated memory (standing in for the
// paper's 15M-comment Reddit dataset).
type Corpus struct {
	P     *ddc.Process
	Base  mem.Addr
	Len   int64
	Lines int
	Vocab int
}

// CorpusConfig controls generation.
type CorpusConfig struct {
	// Words is the total token count; Vocab the vocabulary size. Word
	// frequencies are Zipf-distributed like natural language.
	Words int
	Vocab int
	// Seed makes generation deterministic.
	Seed int64
}

// wordsPerLine is the length of a comment.
const wordsPerLine = 12

// GenerateCorpus synthesises the corpus directly into the memory pool and
// returns it with the text it wrote.
func GenerateCorpus(p *ddc.Process, cfg CorpusConfig) (*Corpus, []byte) {
	if cfg.Words <= 0 || cfg.Vocab <= 1 {
		panic("mapreduce: bad CorpusConfig")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(r, 1.3, 1, uint64(cfg.Vocab-1))
	buf := make([]byte, 0, cfg.Words*6)
	lines := 1
	for i := 0; i < cfg.Words; i++ {
		buf = strconv.AppendUint(append(buf, 'w'), zipf.Uint64(), 10)
		if (i+1)%wordsPerLine == 0 {
			buf = append(buf, '\n')
			lines++
		} else {
			buf = append(buf, ' ')
		}
	}
	buf = append(buf, '\n')
	base := p.Space.AllocPages(int64(len(buf)), "corpus")
	p.Space.WriteAt(base, buf)
	return &Corpus{P: p, Base: base, Len: int64(len(buf)), Lines: lines, Vocab: cfg.Vocab}, buf
}

// ReadChunk copies corpus bytes [lo, hi) through the paging model in
// cache-line-sized units (the streaming read pattern of a scan).
func (c *Corpus) ReadChunk(env *ddc.Env, lo, hi int64, out []byte) []byte {
	n := hi - lo
	if int64(cap(out)) < n {
		out = make([]byte, n)
	}
	out = out[:n]
	const unit = 256
	for off := int64(0); off < n; off += unit {
		end := off + unit
		if end > n {
			end = n
		}
		env.ReadBytes(c.Base+mem.Addr(lo+off), out[off:end])
	}
	return out
}
