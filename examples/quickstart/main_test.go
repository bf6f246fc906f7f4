package main

import (
	"strings"
	"testing"
)

// want is what the quickstart prints. Everything in it is virtual time, so it
// is the same on every host and run.
const want = `compute-pool execution: 1.238s
pushdown execution:     18.042ms  (68.6x speedup)
pushdown breakdown:     pre=1.463µs req=1.496µs queue=0ns setup=148.236µs exec=17.742ms (sync=0ns) resp=1.201µs post=148.236µs
resident pages shipped: 256 (243 runs, 2074-byte request)
`

func TestQuickstartPrintsPinnedOutput(t *testing.T) {
	var out strings.Builder
	run(&out)
	if out.String() != want {
		t.Fatalf("quickstart printed\n%s\nwant\n%s", out.String(), want)
	}
}
