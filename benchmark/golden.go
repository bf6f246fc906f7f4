package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json pins, for seed goldenSeed, every run's simulated nanoseconds
// and answer checksum (for the suite: the first 8 bytes of the SHA-256 of
// each rendered table) at both size sets. It is the behaviour contract a
// host-side optimisation must leave untouched; regenerate it with
// -write-golden only for a change that means to move simulated results.
//
//go:embed golden.json
var goldenJSON []byte

const goldenSeed = 1

type golden struct {
	Seed int64 `json:"seed"`
	// Sizes maps size set → workload → the runs of one round, in order.
	Sizes map[string]map[string][]runRecord `json:"sizes"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, err
	}
	return g, nil
}

// recordGolden runs one round of every workload at both size sets.
func recordGolden() (*golden, error) {
	g := &golden{Seed: goldenSeed, Sizes: make(map[string]map[string][]runRecord)}
	for _, sz := range []sizes{fullSizes(), smokeSizes()} {
		h := newHarness(sz, goldenSeed)
		g.Sizes[sz.name] = make(map[string][]runRecord)
		for _, w := range allWorkloads() {
			s := newSession(h, w)
			s.round(nil)
			if s.failed > 0 {
				return nil, fmt.Errorf("%s at the %s sizes: %d failed checks, first: %s", w.name, sz.name, s.failed, s.failures[0])
			}
			g.Sizes[sz.name][w.name] = records(s.rounds[0])
		}
	}
	return g, nil
}
