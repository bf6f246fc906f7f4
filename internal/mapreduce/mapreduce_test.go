package mapreduce

import (
	"strings"
	"testing"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

func localCorpus(t *testing.T, words int) (*Corpus, []byte, *profile.Exec) {
	t.Helper()
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	c, raw := GenerateCorpus(p, CorpusConfig{Words: words, Vocab: 500, Seed: 5})
	return c, raw, profile.NewExec(sim.NewThread("mr"), p, nil)
}

func naiveWordCount(raw []byte) map[int64]int64 {
	want := map[int64]int64{}
	for _, tok := range strings.Fields(string(raw)) {
		var id int64
		for _, ch := range tok[1:] {
			id = id*10 + int64(ch-'0')
		}
		want[id]++
	}
	return want
}

func TestCorpusGeneration(t *testing.T) {
	c, raw, ex := localCorpus(t, 2000)
	if c.Len != int64(len(raw)) {
		t.Fatalf("Len %d vs raw %d", c.Len, len(raw))
	}
	if c.Lines < 2000/13 {
		t.Fatalf("Lines = %d", c.Lines)
	}
	// The stored bytes must equal the raw copy.
	got := make([]byte, len(raw))
	ex.Env.P.Space.ReadAt(c.Base, got)
	for i := range raw {
		if raw[i] != got[i] {
			t.Fatal("stored corpus differs from raw copy")
		}
	}
	// Zipf skew: the most common word should dominate.
	counts := naiveWordCount(raw)
	var max int64
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 2000/20 {
		t.Fatalf("no Zipf skew: max count %d", max)
	}
}

func TestWordCountMatchesNaive(t *testing.T) {
	c, raw, ex := localCorpus(t, 3000)
	eng := NewEngine(c, WordCount{}, 4, 4)
	eng.Run(ex)
	want := naiveWordCount(raw)
	got := eng.Results()
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d, want %d", len(got), len(want))
	}
	prev := int64(-1)
	for _, kv := range got {
		if kv.K <= prev {
			t.Fatal("results not sorted by key")
		}
		prev = kv.K
		if want[kv.K] != kv.V {
			t.Fatalf("word %d count = %d, want %d", kv.K, kv.V, want[kv.K])
		}
	}
}

func TestWordCountTaskCountInvariance(t *testing.T) {
	// The answer must not depend on mapper/reducer counts.
	sum := func(mappers, reducers int) int64 {
		c, _, ex := localCorpus(t, 2500)
		eng := NewEngine(c, WordCount{}, mappers, reducers)
		eng.Run(ex)
		var s int64
		for _, kv := range eng.Results() {
			s += kv.V * (kv.K + 1)
		}
		return s
	}
	a, b, c := sum(1, 1), sum(3, 5), sum(8, 2)
	if a != b || a != c {
		t.Fatalf("results vary with task counts: %d %d %d", a, b, c)
	}
}

func TestGrepCountsMatches(t *testing.T) {
	c, raw, ex := localCorpus(t, 3000)
	eng := NewEngine(c, Grep{Pattern: "w1 ", Buckets: 16}, 4, 2)
	eng.Run(ex)
	var got int64
	for _, kv := range eng.Results() {
		got += kv.V
	}
	want := int64(strings.Count(string(raw), "w1 "))
	if got != want {
		t.Fatalf("grep hits = %d, want %d", got, want)
	}
}

func TestPhasesProfiled(t *testing.T) {
	c, _, ex := localCorpus(t, 1000)
	eng := NewEngine(c, WordCount{}, 2, 2)
	eng.Run(ex)
	prof := ex.Profile()
	if len(prof) != 4 {
		t.Fatalf("profile = %+v", prof)
	}
	for i, name := range []string{OpMapCompute, OpMapShuffle, OpReduce, OpMerge} {
		if prof[i].Name != name {
			t.Fatalf("phase %d = %s, want %s", i, prof[i].Name, name)
		}
	}
}

// TestWordCountIdenticalAcrossPlatforms: same answer on Linux, base DDC,
// TELEPORT (map-shuffle pushed); local < teleport < base for time.
func TestWordCountIdenticalAcrossPlatforms(t *testing.T) {
	run := func(cfg ddc.Config, push bool) (int64, sim.Time) {
		m := ddc.MustMachine(cfg)
		p := m.NewProcess()
		c, _ := GenerateCorpus(p, CorpusConfig{Words: 60000, Vocab: 2000, Seed: 5})
		th := sim.NewThread("mr")
		var rt *core.Runtime
		if push {
			rt = core.NewRuntime(p, 1)
		}
		ex := profile.NewExec(th, p, rt)
		if push {
			ex.Push(OpMapShuffle)
		}
		eng := NewEngine(c, WordCount{}, 4, 8)
		eng.Run(ex)
		var s int64
		for _, kv := range eng.Results() {
			s += kv.V * (kv.K*7 + 1)
		}
		return s, ex.Total()
	}
	cache := int64(64 * mem.PageSize)
	sumL, tL := run(ddc.Linux(), false)
	sumB, tB := run(ddc.BaseDDC(cache), false)
	sumT, tT := run(ddc.BaseDDC(cache), true)
	if sumL != sumB || sumL != sumT {
		t.Fatalf("answers differ: %d %d %d", sumL, sumB, sumT)
	}
	if !(tL < tT && tT < tB) {
		t.Fatalf("time ordering broken: local %v, teleport %v, base %v", tL, tT, tB)
	}
}

// TestGrepPushedMatchesUnpushed: pushing the map-shuffle must not change
// grep's results.
func TestGrepPushedMatchesUnpushed(t *testing.T) {
	results := make([][]KV, 2)
	for variant := 0; variant < 2; variant++ {
		m := ddc.MustMachine(ddc.BaseDDC(48 * mem.PageSize))
		p := m.NewProcess()
		c, _ := GenerateCorpus(p, CorpusConfig{Words: 20000, Vocab: 300, Seed: 9})
		var rt *core.Runtime
		if variant == 1 {
			rt = core.NewRuntime(p, 1)
		}
		ex := profile.NewExec(sim.NewThread("grep"), p, rt)
		if variant == 1 {
			ex.Push(OpMapShuffle)
		}
		eng := NewEngine(c, Grep{Pattern: "w2 ", Buckets: 32}, 3, 4)
		eng.Run(ex)
		results[variant] = eng.Results()
	}
	if len(results[0]) != len(results[1]) {
		t.Fatalf("result counts differ: %d vs %d", len(results[0]), len(results[1]))
	}
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, results[0][i], results[1][i])
		}
	}
}

func TestGrepNoMatches(t *testing.T) {
	c, _, ex := localCorpus(t, 1000)
	eng := NewEngine(c, Grep{Pattern: "zzz-not-present"}, 2, 2)
	eng.Run(ex)
	if len(eng.Results()) != 0 {
		t.Fatalf("no-match grep returned %d rows", len(eng.Results()))
	}
}

func TestGrepEmptyPatternAndDefaults(t *testing.T) {
	c, _, ex := localCorpus(t, 500)
	eng := NewEngine(c, Grep{}, 0, 0) // empty pattern, clamped task counts
	eng.Run(ex)
	if eng.Mappers != 1 || eng.Reducers != 1 {
		t.Fatalf("task counts not clamped: %d/%d", eng.Mappers, eng.Reducers)
	}
	if len(eng.Results()) != 0 {
		t.Fatal("empty pattern must match nothing")
	}
}

func TestMoreMappersThanLines(t *testing.T) {
	m := ddc.MustMachine(ddc.Linux())
	p := m.NewProcess()
	c, raw := GenerateCorpus(p, CorpusConfig{Words: 30, Vocab: 10, Seed: 2})
	ex := profile.NewExec(sim.NewThread("mr"), p, nil)
	eng := NewEngine(c, WordCount{}, 16, 4) // chunks smaller than lines
	eng.Run(ex)
	want := naiveWordCount(raw)
	var total, wantTotal int64
	for _, kv := range eng.Results() {
		total += kv.V
	}
	for _, v := range want {
		wantTotal += v
	}
	if total != wantTotal {
		t.Fatalf("token total = %d, want %d", total, wantTotal)
	}
}
