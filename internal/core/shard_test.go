package core

import (
	"errors"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// Availability acceptance tests for the sharded memory pool: with Replicas
// ≥ 2, reads and pushdowns succeed during ANY single-shard outage — zero
// fallbacks to local execution — while paying failover latency; with
// Replicas = 1 the same outage sheds the pushdown with ErrShardDown and the
// recovery policy waits for the scheduled shard restart.

// shardProc builds a K-shard, R-replica TELEPORT process with an empty
// fault plan ready for Pin(fault.Shard(s), …).
func shardProc(t *testing.T, shards, replicas, cachePages int) (*ddc.Process, *Runtime, *fault.Plan) {
	t.Helper()
	cfg := ddc.BaseDDC(int64(cachePages) * mem.PageSize)
	cfg.PoolShards, cfg.Replicas = shards, replicas
	m := ddc.MustMachine(cfg)
	plan := fault.NewPlan(fault.Profile{Name: "avail"}, 0)
	m.AttachFault(plan)
	p := m.NewProcess()
	return p, NewRuntime(p, 1), plan
}

// With R=2, a pushdown whose resident pages stripe across all K shards
// succeeds during an outage of any single shard: no retry, no local
// fallback, correct answer.
func TestPushdownSucceedsDuringAnySingleShardOutage(t *testing.T) {
	const n = 2048 // 4 pages: the working set stripes across all 3 shards
	for s := 0; s < 3; s++ {
		p, rt, plan := shardProc(t, 3, 2, 16)
		th := sim.NewThread("t")
		a := fillVec(p, th, n)
		down := th.Now() + 10*sim.Microsecond
		plan.Pin(fault.Shard(s), fault.Window{Down: down, Up: down + 10*sim.Millisecond})
		th.AdvanceTo(down + sim.Microsecond)

		var out int64
		_, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, n, &out), Options{})
		if err != nil || !ran {
			t.Fatalf("shard %d down: ran=%v err=%v, want a pushdown despite the outage", s, ran, err)
		}
		if out != int64(n)*int64(n-1)/2 {
			t.Fatalf("shard %d down: sum = %d, want %d", s, out, int64(n)*int64(n-1)/2)
		}
		if rs := rt.Stats(); rs.LocalFallbacks != 0 || rs.Retries != 0 || rs.ShardDownObserved != 0 {
			t.Fatalf("shard %d down with a live replica: stats = %+v, want no fallbacks/retries/sheds", s, rs)
		}
	}
}

// With R=2, a compute-side read of a page whose primary shard is down is
// served by the replica: it pays failover latency on top of the healthy
// fault path but never stalls out the outage window.
func TestReadFailsOverDuringShardOutage(t *testing.T) {
	const n = 2048
	elapsed := func(outage bool) (sim.Time, int64) {
		p, _, plan := shardProc(t, 3, 2, 16)
		th := sim.NewThread("t")
		a := fillVec(p, th, n)
		// A one-page compute cache forces remote faults on every page
		// transition of the scan below.
		p.ResizeCache(mem.PageSize)
		down := th.Now() + 10*sim.Microsecond
		if outage {
			plan.Pin(fault.Shard(0), fault.Window{Down: down, Up: down + 100*sim.Millisecond})
		}
		th.AdvanceTo(down + sim.Microsecond)
		start := th.Now()
		env := p.NewEnv(th)
		var sum int64
		for i := 0; i < n; i++ {
			sum += env.ReadI64(a + mem.Addr(i*8))
		}
		if sum != int64(n)*int64(n-1)/2 {
			t.Fatalf("sum = %d, want %d", sum, int64(n)*int64(n-1)/2)
		}
		var failovers int64
		if p.M.ShardStats != nil {
			failovers = p.M.ShardStats[0].FailoverReads
			if p.M.ShardStats[0].Stalls != 0 {
				t.Fatalf("reads stalled %d times despite a live replica", p.M.ShardStats[0].Stalls)
			}
		}
		return th.Now() - start, failovers
	}
	healthy, _ := elapsed(false)
	degraded, failovers := elapsed(true)
	if failovers == 0 {
		t.Fatal("no failover reads during the shard-0 outage")
	}
	if degraded <= healthy {
		t.Fatalf("degraded scan took %v, healthy %v: failover latency was not charged", degraded, healthy)
	}
	// The outage lasts 100ms; the scan must have failed over, not waited.
	if degraded > healthy+10*sim.Millisecond {
		t.Fatalf("degraded scan took %v vs healthy %v: looks like a stall, not failover", degraded, healthy)
	}
}

// Without replication the same outage sheds the pushdown: bare Pushdown
// reports ErrShardDown (matched with errors.Is), and the retry policy waits
// for the scheduled shard restart instead of falling back to local.
func TestUnreplicatedShardOutageShedsThenRecovers(t *testing.T) {
	const n = 2048
	p, rt, plan := shardProc(t, 3, 1, 16)
	th := sim.NewThread("t")
	a := fillVec(p, th, n)
	down := th.Now() + 10*sim.Microsecond
	up := down + 5*sim.Millisecond
	plan.Pin(fault.Shard(1), fault.Window{Down: down, Up: up})
	th.AdvanceTo(down + sim.Microsecond)

	var out int64
	if _, err := rt.Pushdown(th, sumFunc(a, n, &out), Options{}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("bare pushdown during an unreplicated shard outage: err = %v, want ErrShardDown", err)
	}
	if !Recoverable(ErrShardDown) {
		t.Fatal("ErrShardDown must be Recoverable")
	}
	if rs := rt.Stats(); rs.ShardDownObserved != 1 {
		t.Fatalf("ShardDownObserved = %d, want 1", rs.ShardDownObserved)
	}

	_, ran, err := rt.PushdownWithPolicy(th, sumFunc(a, n, &out), Options{})
	if err != nil || !ran {
		t.Fatalf("policy: ran=%v err=%v, want a successful retry after the shard restart", ran, err)
	}
	if th.Now() < up {
		t.Fatalf("retry succeeded at %v, before the shard restart at %v", th.Now(), up)
	}
	if out != int64(n)*int64(n-1)/2 {
		t.Fatalf("sum = %d, want %d", out, int64(n)*int64(n-1)/2)
	}
	if rs := rt.Stats(); rs.Retries != 1 || rs.LocalFallbacks != 0 {
		t.Fatalf("Retries=%d LocalFallbacks=%d, want one scheduled-wait retry and no fallback",
			rs.Retries, rs.LocalFallbacks)
	}
}
