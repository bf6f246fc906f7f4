package hw

import (
	"math"
	"testing"
)

func TestTestbedValid(t *testing.T) {
	c := Testbed()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpNs(t *testing.T) {
	if got := OpNs(2.0, 10); got != 5.0 {
		t.Fatalf("OpNs(2,10) = %v, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero clock")
		}
	}()
	OpNs(0, 1)
}

func TestMsgNs(t *testing.T) {
	c := Testbed()
	// A 4 KB page at 7 GB/s plus 1.2 µs latency.
	want := 1200 + 4096/7.0
	if got := c.MsgNs(4096); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MsgNs(4096) = %v, want %v", got, want)
	}
	if got := c.MsgNs(0); got != 1200 {
		t.Fatalf("MsgNs(0) = %v, want pure latency", got)
	}
}

func TestRoundTripNs(t *testing.T) {
	c := Testbed()
	want := c.MsgNs(100) + c.NetHandlerNs + c.MsgNs(4096)
	if got := c.RoundTripNs(100, 4096); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RoundTripNs = %v, want %v", got, want)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := Testbed()
	cases := []func(*Config){
		func(c *Config) { c.ComputeClockGHz = 0 },
		func(c *Config) { c.MemoryClockGHz = -1 },
		func(c *Config) { c.MemoryPoolCores = 0 },
		func(c *Config) { c.NetBandwidthGBs = 0 },
		func(c *Config) { c.SSDSeqGBs = 0 },
		func(c *Config) { c.DRAMLineBytes = 0 },
	}
	for i, mutate := range cases {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a broken config", i)
		}
	}
}

// The line model masks and shifts with the line geometry, so Validate must
// hold it to powers of two that tile a page.
func TestValidateLineGeometry(t *testing.T) {
	for _, tc := range []struct {
		lineBytes, cacheLines int
		ok                    bool
	}{
		{64, 8192, true},
		{1, 1, true},
		{4096, 0, true}, // one line per page, no on-chip cache
		{128, 2, true},
		{0, 8192, false},
		{-64, 8192, false},
		{48, 8192, false},   // does not divide a page
		{96, 8192, false},   // not a power of two
		{8192, 8192, false}, // larger than a page
		{64, 6000, false},   // index mask would alias
		{64, 3, false},
		{64, -8, false},
	} {
		c := Testbed()
		c.DRAMLineBytes, c.CacheLines = tc.lineBytes, tc.cacheLines
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("DRAMLineBytes=%d CacheLines=%d: Validate = %v, want ok=%v",
				tc.lineBytes, tc.cacheLines, err, tc.ok)
		}
	}
}

func TestClockRatioShapesCost(t *testing.T) {
	// Throttling the memory clock (§7.3) must make memory-pool ops slower
	// proportionally.
	full := OpNs(2.1, 1000)
	throttled := OpNs(0.4, 1000)
	if ratio := throttled / full; math.Abs(ratio-2.1/0.4) > 1e-9 {
		t.Fatalf("throttle ratio = %v", ratio)
	}
}
