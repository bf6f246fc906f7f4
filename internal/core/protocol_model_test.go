package core

import (
	"fmt"
	"math/rand"
	"testing"

	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// This file model-checks the §4.1 coherence protocol: an abstract two-node
// permission machine (the paper's (compute, memory) ∈ {∅, R, W}² states)
// is driven in lockstep with the real implementation by the same random
// operation sequence, and the permission state must agree after every
// operation. This is stronger than the SWMR spot checks: it pins the exact
// Figure 8/9 transitions.

type perm int

const (
	permNone perm = iota // ∅
	permR
	permW
)

func (p perm) String() string { return [...]string{"∅", "R", "W"}[p] }

// modelPage is the reference state machine for one page.
type modelPage struct {
	comp perm
	mem  perm
}

// compute-side access (Figure 9 lines 1–10 as seen from the model).
func (m *modelPage) computeAccess(write bool) {
	if write {
		// Compute obtains W; the temporary context's copy is invalidated
		// (write ⇒ present ← false).
		m.comp, m.mem = permW, permNone
		return
	}
	if m.comp == permNone {
		// Fetch read-only; the memory side is downgraded to R if it held W.
		m.comp = permR
		if m.mem == permW {
			m.mem = permR
		}
	}
	// comp R/W read: no transition.
}

// memory-side access (Figure 9 lines 11–25).
func (m *modelPage) memoryAccess(write bool) {
	if write {
		// Memory obtains W; the compute copy is evicted (write ⇒ evict).
		m.mem, m.comp = permW, permNone
		return
	}
	if m.mem == permNone {
		if m.comp != permNone {
			// Compute holds it: both become readers (line 24).
			m.comp, m.mem = permR, permR
		} else {
			// True fault: the temporary context is the sole (writable)
			// holder, as in the Figure 8 clone default.
			m.mem = permW
		}
	} else if m.mem == permR && m.comp == permW {
		// Cannot happen under SWMR; flagged by the invariant check.
	}
}

// swmrOK checks the Single-Writer-Multiple-Reader invariant.
func (m modelPage) swmrOK() bool {
	if m.comp == permW && m.mem != permNone {
		return false
	}
	if m.mem == permW && m.comp != permNone {
		return false
	}
	return true
}

// realPerms extracts the implementation's permission pair for a page.
func realPerms(p *ddc.Process, rt *Runtime, pg mem.PageID) (comp, memPerm perm) {
	if w, _, ok := p.Cache.Lookup(pg); ok {
		comp = permR
		if w {
			comp = permW
		}
	}
	present, writable := rt.temp.peek(pg)
	switch {
	case !present:
		memPerm = permNone
	case writable:
		memPerm = permW
	default:
		memPerm = permR
	}
	return comp, memPerm
}

func TestCoherenceProtocolAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cfg := ddc.BaseDDC(1 << 20) // big cache: no LRU noise
			cfg.PrefetchDepth = 0       // keep residency exactly op-driven
			m := ddc.MustMachine(cfg)
			p := m.NewProcess()
			rt := NewRuntime(p, 1)
			const pages = 24
			base := p.Space.AllocPages(pages*mem.PageSize, "proto")

			// Warm-up: give the compute pool a mixed set of R and W pages.
			warm := sim.NewThread("warm")
			wenv := p.NewEnv(warm)
			model := make([]modelPage, pages)
			for pg := 0; pg < pages; pg++ {
				switch r.Intn(3) {
				case 0: // absent
				case 1:
					wenv.ReadI64(base + mem.Addr(pg)*mem.PageSize)
					model[pg].comp = permR
				case 2:
					wenv.WriteI64(base+mem.Addr(pg)*mem.PageSize, 1)
					model[pg].comp = permW
				}
			}

			caller := sim.NewThread("caller")
			cenv := p.NewEnv(sim.NewThread("compute"))
			_, err := rt.Pushdown(caller, func(env *ddc.Env) {
				// Figure 8's setup just ran: apply it to the model.
				for pg := range model {
					switch model[pg].comp {
					case permW:
						model[pg].mem = permNone
					case permR:
						model[pg].mem = permR
					default:
						model[pg].mem = permW // clone default
					}
				}
				// Drive both machines with the same operation sequence.
				for step := 0; step < 2000; step++ {
					pg := r.Intn(pages)
					addr := base + mem.Addr(pg)*mem.PageSize + mem.Addr(r.Intn(64)*64)
					write := r.Intn(2) == 0
					onMemory := r.Intn(2) == 0
					if onMemory {
						if write {
							env.WriteI64(addr, int64(step))
						} else {
							env.ReadI64(addr)
						}
						model[pg].memoryAccess(write)
					} else {
						if write {
							cenv.WriteI64(addr, int64(step))
						} else {
							cenv.ReadI64(addr)
						}
						model[pg].computeAccess(write)
					}
					if !model[pg].swmrOK() {
						t.Fatalf("step %d: model itself broke SWMR on page %d: %+v", step, pg, model[pg])
					}
					gotC, gotM := realPerms(p, rt, mem.PageOf(addr))
					if gotC != model[pg].comp || gotM != model[pg].mem {
						t.Fatalf("step %d page %d (%s %s on %s): real (%s,%s) != model (%s,%s)",
							step, pg, opName(write), "access", side(onMemory),
							gotC, gotM, model[pg].comp, model[pg].mem)
					}
				}
			}, Options{})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func side(onMemory bool) string {
	if onMemory {
		return "memory"
	}
	return "compute"
}

// PSO transitions (§4.2): when one pool requests write permission, the
// other pool's copy is *downgraded to read-only* instead of removed. Write
// serialization per location is kept (one writer), but write propagation is
// relaxed — the stale read-only copy is permitted, so SWMR deliberately
// does not hold.
func (m *modelPage) computeAccessPSO(write bool) {
	if write {
		m.comp = permW
		if m.mem != permNone {
			m.mem = permR
		}
		return
	}
	if m.comp == permNone {
		m.comp = permR
		if m.mem == permW {
			m.mem = permR
		}
	}
}

func (m *modelPage) memoryAccessPSO(write bool) {
	if write {
		m.mem = permW
		if m.comp != permNone {
			m.comp = permR
		}
		return
	}
	if m.mem == permNone {
		if m.comp != permNone {
			m.comp, m.mem = permR, permR
		} else {
			m.mem = permW
		}
	}
}

// psoOK: write serialization still forbids two simultaneous writers.
func (m modelPage) psoOK() bool {
	return !(m.comp == permW && m.mem == permW)
}

func TestPSOProtocolAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed ^ 0x50))
			cfg := ddc.BaseDDC(1 << 20)
			cfg.PrefetchDepth = 0
			m := ddc.MustMachine(cfg)
			p := m.NewProcess()
			rt := NewRuntime(p, 1)
			const pages = 16
			base := p.Space.AllocPages(pages*mem.PageSize, "pso")

			warm := sim.NewThread("warm")
			wenv := p.NewEnv(warm)
			model := make([]modelPage, pages)
			for pg := 0; pg < pages; pg++ {
				switch r.Intn(3) {
				case 1:
					wenv.ReadI64(base + mem.Addr(pg)*mem.PageSize)
					model[pg].comp = permR
				case 2:
					wenv.WriteI64(base+mem.Addr(pg)*mem.PageSize, 1)
					model[pg].comp = permW
				}
			}

			caller := sim.NewThread("caller")
			cenv := p.NewEnv(sim.NewThread("compute"))
			_, err := rt.Pushdown(caller, func(env *ddc.Env) {
				for pg := range model {
					switch model[pg].comp {
					case permW:
						model[pg].mem = permNone // Figure 8 setup is unchanged under PSO
					case permR:
						model[pg].mem = permR
					default:
						model[pg].mem = permW
					}
				}
				for step := 0; step < 1500; step++ {
					pg := r.Intn(pages)
					addr := base + mem.Addr(pg)*mem.PageSize + mem.Addr(r.Intn(64)*64)
					write := r.Intn(2) == 0
					if r.Intn(2) == 0 {
						if write {
							env.WriteI64(addr, int64(step))
						} else {
							env.ReadI64(addr)
						}
						model[pg].memoryAccessPSO(write)
					} else {
						if write {
							cenv.WriteI64(addr, int64(step))
						} else {
							cenv.ReadI64(addr)
						}
						model[pg].computeAccessPSO(write)
					}
					if !model[pg].psoOK() {
						t.Fatalf("step %d: two writers on page %d", step, pg)
					}
					gotC, gotM := realPerms(p, rt, mem.PageOf(addr))
					if gotC != model[pg].comp || gotM != model[pg].mem {
						t.Fatalf("step %d page %d: real (%s,%s) != model (%s,%s)",
							step, pg, gotC, gotM, model[pg].comp, model[pg].mem)
					}
				}
			}, Options{Flags: FlagPSO})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
