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
	if cfg.WordsPerLine <= 0 {
		cfg.WordsPerLine = 12
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(r, 1.3, 1, uint64(cfg.Vocab-1))
	var buf []byte
	for i := 0; i < cfg.Words; i++ {
		buf = append(buf, fmt.Sprintf("w%d", zipf.Uint64())...)
		if (i+1)%cfg.WordsPerLine == 0 {
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
		{Words: 20000, Vocab: 500, Seed: 2, WordsPerLine: 7},
		{Words: 12000, Vocab: 100000, Seed: 3, WordsPerLine: 1},
	} {
		want := referenceCorpus(cfg)
		for _, keep := range []bool{false, true} {
			cfg.KeepRaw = keep
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
			if keep != (raw != nil) || (keep && !bytes.Equal(raw, want)) {
				t.Fatalf("%+v: raw copy wrong", cfg)
			}
		}
	}
}
