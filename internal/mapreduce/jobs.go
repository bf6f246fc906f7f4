package mapreduce

import (
	"teleport/internal/ddc"
)

// WordCount counts word occurrences (the paper's WC workload). Words in the
// synthetic corpus are "w<id>" tokens; the id is the key.
type WordCount struct{}

// Map tokenises the chunk and emits (wordID, 1) per token.
func (WordCount) Map(env *ddc.Env, chunk []byte, _ int, emit func(k, v int64)) {
	i := 0
	for i < len(chunk) {
		// Skip separators.
		for i < len(chunk) && (chunk[i] == ' ' || chunk[i] == '\n') {
			i++
		}
		if i >= len(chunk) {
			return
		}
		// Parse "w<digits>".
		var id int64
		j := i
		if chunk[j] == 'w' {
			j++
			for j < len(chunk) && chunk[j] >= '0' && chunk[j] <= '9' {
				id = id*10 + int64(chunk[j]-'0')
				j++
			}
			emit(id, 1)
		} else {
			for j < len(chunk) && chunk[j] != ' ' && chunk[j] != '\n' {
				j++
			}
		}
		i = j
	}
}

// Grep counts pattern occurrences per line-bucket (the paper's Grep
// workload): the map side does substring matching over the raw bytes and
// emits one record per hit, so the shuffle is small while the scan is not.
type Grep struct {
	Pattern string
	// Buckets controls how many distinct keys the hits spread over.
	Buckets int64
}

// Map emits (line bucket, 1) for every pattern occurrence.
func (g Grep) Map(env *ddc.Env, chunk []byte, lineBase int, emit func(k, v int64)) {
	pat := []byte(g.Pattern)
	if len(pat) == 0 {
		return
	}
	buckets := g.Buckets
	if buckets <= 0 {
		buckets = 64
	}
	line := int64(lineBase)
	for i := 0; i+len(pat) <= len(chunk); i++ {
		if chunk[i] == '\n' {
			line++
			continue
		}
		match := true
		for k := range pat {
			if chunk[i+k] != pat[k] {
				match = false
				break
			}
		}
		if match {
			emit(line%buckets, 1)
		}
	}
}
