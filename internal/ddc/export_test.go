package ddc

// WrapPager replaces e's pager with w(e's pager), so that a test outside the
// package can see every call the Env makes to it.
func WrapPager(e *Env, w func(Pager) Pager) { e.pager = w(e.pager) }
