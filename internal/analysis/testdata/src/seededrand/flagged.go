package seededrand

import (
	crand "crypto/rand" // want `crypto/rand is nondeterministic`
	"math/rand"
)

func bad() int {
	rand.Seed(1)                       // want `rand\.Seed .*unseeded global source`
	_ = rand.Float64()                 // want `rand\.Float64 .*unseeded global source`
	rand.Shuffle(2, func(i, j int) {}) // want `rand\.Shuffle .*unseeded global source`
	buf := make([]byte, 8)
	_, _ = crand.Read(buf)
	return rand.Intn(10) // want `rand\.Intn .*unseeded global source`
}
