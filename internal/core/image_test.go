package core

import (
	"bytes"
	"errors"
	"testing"

	"teleport/internal/fault"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

// vecImage freezes a space holding fillVecPages' vector, and returns the
// vector's address in any process attached to the image.
func vecImage() (*mem.Image, mem.Addr) {
	src := mem.NewSpace()
	a := src.AllocPages(vecPages*mem.PageSize, "vec")
	for i := 0; i < vecPages; i++ {
		src.WriteI64(a+mem.Addr(i)*mem.PageSize, int64(i))
	}
	return src.Freeze(), a
}

// The undo oracle on copy-on-write frames: a pushed function stores to pages
// its process still shares with a dataset image and dies mid-execution. The
// pool's bytes must equal the pre-call snapshot — restored into frames the
// aborted stores gave the process, not written through to the image — an Env
// of the compute side that held those pages' image frames must read the
// restored bytes, and the image and a sibling process attached to it must
// never have seen a store. The re-execution then applies exactly once.
func TestAbortedPushdownOnImagePagesRestoresByUnsharing(t *testing.T) {
	img, a := vecImage()
	p, rt := testProc(16)
	p.Space.Share(usedArena(2 * vecPages)) // own copies and pre-images are recycled pages
	p.Attach(img)
	sibling, _ := testProc(16)
	sibling.Attach(img)
	p.M.AttachFault(fault.NewPlan(fault.Profile{Name: "mid", CtxCrashMidProb: 1}, 5))
	th := sim.NewThread("t")

	// A compute-side Env streams over the first pages, so its slots memoise
	// image frames the pushed function is about to store to.
	holder := p.NewEnv(sim.NewThread("holder"))
	for i := 0; i < 4; i++ {
		if got := holder.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i) {
			t.Fatalf("slot %d reads %d through the image, want %d", i, got, i)
		}
	}

	first, last := mem.PageOf(a), mem.PageOf(a+vecPages*mem.PageSize-1)
	shared := func(pg mem.PageID) bool { return &p.Space.Frame(pg)[0] == &sibling.Space.Frame(pg)[0] }
	before := make(map[mem.PageID][]byte)
	for pg := first; pg <= last; pg++ {
		if !shared(pg) {
			t.Fatalf("page %d is not shared before the call", pg)
		}
		before[pg] = p.Space.SnapshotPageInto(pg, nil)
	}

	_, err := rt.Pushdown(th, incVecPages(a), Options{})
	if !errors.Is(err, ErrContextCrashed) {
		t.Fatalf("err = %v, want ErrContextCrashed", err)
	}
	rolled := int(rt.Stats().RolledBackPages)
	if rolled == 0 {
		t.Fatal("RolledBackPages = 0, want > 0 (the crash fired after dirtying pages)")
	}
	own := 0
	for pg := first; pg <= last; pg++ {
		if !bytes.Equal(p.Space.Frame(pg), before[pg]) {
			t.Fatalf("page %d differs from the pre-call snapshot (rollback incomplete)", pg)
		}
		if !shared(pg) {
			own++
		}
	}
	// Every rolled-back page has a frame of its own, which the restore landed
	// in; so may the page of the access the crash fired on, which had taken
	// its frame and stored nothing.
	if own < rolled || own > rolled+1 {
		t.Fatalf("%d pages left the image, %d were rolled back", own, rolled)
	}

	// The fallback of the policy applies the increments exactly once, in p only.
	if _, ran, err := rt.PushdownWithPolicy(th, incVecPages(a), Options{}); err != nil || ran {
		t.Fatalf("policy: ran=%v err=%v, want the compute-side fallback", ran, err)
	}
	checkVecOnce(t, p, th, a, "after fallback")
	for i := 0; i < 4; i++ {
		if got := holder.ReadI64(a + mem.Addr(i)*mem.PageSize); got != int64(i)+1 {
			t.Fatalf("the Env that held slot %d's image frame reads %d, want %d", i, got, i+1)
		}
	}
	fresh := mem.NewSpace()
	fresh.Attach(img, nil)
	for i := 0; i < vecPages; i++ {
		at := a + mem.Addr(i)*mem.PageSize
		if s, f := sibling.Space.ReadU64(at), fresh.ReadU64(at); s != uint64(i) || f != uint64(i) {
			t.Fatalf("slot %d: the sibling reads %d and the image holds %d, want %d in both", i, s, f, i)
		}
	}
}
