package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"teleport/internal/ddc"
)

// referenceCorpus is the text GenerateCorpus produced when it formatted each
// word with fmt.Sprintf, kept as the oracle for the strconv.AppendUint form.
func referenceCorpus(cfg CorpusConfig) []byte {
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(r, 1.3, 1, uint64(cfg.Vocab-1))
	var buf []byte
	for i := 0; i < cfg.Words; i++ {
		buf = append(buf, fmt.Sprintf("w%d", zipf.Uint64())...)
		if (i+1)%wordsPerLine == 0 {
			buf = append(buf, '\n')
		} else {
			buf = append(buf, ' ')
		}
	}
	return append(buf, '\n')
}

func TestGenerateCorpusMatchesSprintfReference(t *testing.T) {
	for _, cfg := range []CorpusConfig{
		{Words: 5000, Vocab: 2, Seed: 1},
		{Words: 20000, Vocab: 500, Seed: 2},
		{Words: 12000, Vocab: 100000, Seed: 3},
	} {
		want := referenceCorpus(cfg)
		p := ddc.MustMachine(ddc.Linux()).NewProcess()
		c, raw := GenerateCorpus(p, cfg)
		got := make([]byte, c.Len)
		p.Space.ReadAt(c.Base, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: corpus in memory differs from the reference", cfg)
		}
		if c.Lines != 1+bytes.Count(want[:len(want)-1], []byte{'\n'}) {
			t.Fatalf("%+v: Lines = %d", cfg, c.Lines)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%+v: returned text differs from the reference", cfg)
		}
	}
}
