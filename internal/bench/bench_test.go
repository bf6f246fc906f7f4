package bench

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// smallOpts keeps the figure regressions fast.
func smallOpts() Options {
	return Options{
		Scale:     0.5,
		GraphNV:   15000,
		Words:     60000,
		Seed:      1,
		CacheFrac: 0.02,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"1a", "1b", "3", "6", "7", "10", "11", "12", "13", "14", "15", "16", "17", "18", "19", "20", "21", "22", "A1", "A2", "A3", "A4", "A5", "A6", "A7"}
	have := map[string]bool{}
	for _, id := range Figures() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("figure %s not registered", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registered %d figures, want %d", len(have), len(want))
	}
}

// The figure table is the one list of figures: no id appears twice and every
// id has a runner.
func TestFigureTableIdsUniqueWithRunners(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.id] || f.run == nil {
			t.Errorf("figure %q: listed before %v, runner %v", f.id, seen[f.id], f.run != nil)
		}
		seen[f.id] = true
	}
}

// RunAll runs the figures it is given in the order given, in one scope, and
// renders what Run renders of each; an unknown id is an error that names it.
func TestRunAllRunsTheListedFigures(t *testing.T) {
	opts := smokeOpts()
	tabs, err := RunAll(opts, "21", "22")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"21", "22"} {
		tab, err := Run(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderTable(tabs[i]), renderTable(tab); got != want {
			t.Errorf("RunAll's figure %s:\n%swant Run's:\n%s", id, got, want)
		}
	}
	if _, err := RunAll(opts, "21", "99"); err == nil || !strings.Contains(err.Error(), `"99"`) {
		t.Errorf("RunAll with an unknown figure: err = %v, want one naming \"99\"", err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("99", smallOpts()); err == nil {
		t.Fatal("expected error for unknown figure")
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		Figure: "Fig X", Title: "demo",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Fig X", "demo", "long-header", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// parse a "12.3x" cell.
func parseX(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

// parse a "0.123" seconds cell.
func parseS(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad seconds cell %q: %v", cell, err)
	}
	return v
}

func TestFig6Ordering(t *testing.T) {
	tab, err := Run("6", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	times := map[string]float64{}
	for _, r := range tab.Rows {
		times[r[0]] = parseS(t, r[1])
	}
	// The paper's ordering: local < coherence < per-thread < per-process <
	// base DDC.
	if !(times["Local execution"] < times["TELEPORT (coherence)"] &&
		times["TELEPORT (coherence)"] < times["TELEPORT (per thread)"] &&
		times["TELEPORT (per thread)"] < times["TELEPORT (per process)"] &&
		times["TELEPORT (per process)"] < times["Base DDC"]) {
		t.Fatalf("Figure 6 ordering broken: %v", times)
	}
}

func TestFig7SyncmemBeatsCoherenceUnderFalseSharing(t *testing.T) {
	tab, err := Run("7", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var coh, syn float64
	for _, r := range tab.Rows {
		switch r[0] {
		case "TELEPORT (coherence)":
			coh = parseX(t, r[2])
		case "TELEPORT (syncmem)":
			syn = parseX(t, r[2])
		}
	}
	if !(syn > coh && coh > 1) {
		t.Fatalf("false-sharing shape broken: coherence %.1fx, syncmem %.1fx", coh, syn)
	}
}

func TestFig20EagerDominatedByPrePost(t *testing.T) {
	tab, err := Run("20", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	eager, onDemand := tab.Rows[0], tab.Rows[1]
	if parseS(t, eager[7]) <= 3*parseS(t, onDemand[7]) {
		t.Fatalf("eager overhead (%s) must dwarf on-demand (%s)", eager[7], onDemand[7])
	}
	// On-demand is dominated by context setup (column 3), eager by pre+post.
	if parseS(t, onDemand[3]) <= parseS(t, onDemand[1]) {
		t.Fatal("on-demand setup should dominate its pre-sync")
	}
	if parseS(t, eager[1])+parseS(t, eager[6]) <= parseS(t, eager[3]) {
		t.Fatal("eager pre+post should dominate its setup")
	}
}

func TestFig22RelaxedIsFlat(t *testing.T) {
	tab, err := Run("22", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	defFirst, _ := strconv.ParseInt(first[1], 10, 64)
	defLast, _ := strconv.ParseInt(last[1], 10, 64)
	relFirst, _ := strconv.ParseInt(first[2], 10, 64)
	relLast, _ := strconv.ParseInt(last[2], 10, 64)
	if defLast <= defFirst {
		t.Fatalf("default coherence messages must grow with contention: %d → %d", defFirst, defLast)
	}
	if relLast != relFirst {
		t.Fatalf("relaxed coherence messages must stay flat: %d → %d", relFirst, relLast)
	}
}

// Figure 21's shape (EXPERIMENTS.md, "Figures 21/22"): TELEPORT's default
// coherence slows by at least 10 % from the lowest contention rate to the
// highest (measured 1.16×), more than local execution or the base DDC do
// (1.09× and 1.01×), while the relaxed mode's time does not move.
func TestFig21DefaultDegradesRelaxedFlat(t *testing.T) {
	tab, err := Run("21", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	growth := func(col int) float64 { return parseS(t, last[col]) / parseS(t, first[col]) }
	local, base, def := growth(1), growth(2), growth(3)
	if def < 1.10 || def <= local || def <= base {
		t.Fatalf("default coherence must degrade with contention, more than local and base DDC: ×%.2f, local ×%.2f, base DDC ×%.2f",
			def, local, base)
	}
	if first[5] != last[5] {
		t.Fatalf("relaxed coherence must stay flat: %s → %s s", first[5], last[5])
	}
}

// Figure 10's pattern, at the committed sizes: in each system one operator (for
// WordCount the two halves of the map phase together) holds both the most DDC
// time and the most remote traffic — the EXPERIMENTS.md reading of "one or two
// arbitrary operators dominate".
func TestFig10OneOperatorDominates(t *testing.T) {
	tab, err := Run("10", Defaults())
	if err != nil {
		t.Fatal(err)
	}
	dominant := map[string][]string{
		"coldb/Q9": {"HashJoin"}, "graph/SSSP": {"Scatter"}, "mapreduce/WC": {"MapCompute", "MapShuffle"},
	}
	type cell struct{ ddc, remote float64 }
	top := map[string]cell{}
	for _, r := range tab.Rows {
		for _, op := range dominant[r[0]] {
			if r[1] == op {
				top[r[0]] = cell{top[r[0]].ddc + parseS(t, r[3]), top[r[0]].remote + parseS(t, r[4])}
			}
		}
	}
	if len(top) != len(dominant) {
		t.Fatalf("dominant operators missing from the table: %v", tab.Rows)
	}
	for _, r := range tab.Rows {
		sys, op := r[0], r[1]
		if op == dominant[sys][0] || op == dominant[sys][len(dominant[sys])-1] {
			continue
		}
		if d, rem := parseS(t, r[3]), parseS(t, r[4]); d >= top[sys].ddc || rem >= top[sys].remote {
			t.Errorf("%s: %s (%.4fs, %.1fMB) rivals the dominant %v (%.4fs, %.1fMB)",
				sys, op, d, rem, dominant[sys], top[sys].ddc, top[sys].remote)
		}
	}
}

// Figure 3's shape, at the committed sizes (the slowdowns are ratios of
// working set to cache behaviour and do not survive shrinking): every workload
// is slower on the base DDC, Q9 is the worst of them, and the three graph
// workloads sit around the paper's 5×.
func TestFig3Q9WorstGraphAroundFive(t *testing.T) {
	tab, err := Run("3", Defaults())
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]float64{}
	for _, r := range tab.Rows {
		slow[r[1]] = parseX(t, r[4])
		if slow[r[1]] <= 1 {
			t.Errorf("%s: no DDC overhead (%s)", r[1], r[4])
		}
		if r[0] == "graph" && (slow[r[1]] < 3.5 || slow[r[1]] > 6.5) {
			t.Errorf("%s: slowdown %s, want about 5x", r[1], r[4])
		}
	}
	if len(slow) != 8 {
		t.Fatalf("rows = %v, want the 8 workloads", tab.Rows)
	}
	for w, x := range slow {
		if w != "Q9" && x >= slow["Q9"] {
			t.Errorf("%s slows down %.1fx, more than Q9's %.1fx", w, x, slow["Q9"])
		}
	}
}

// Figure 15's shape: every platform is poor when memory is 0.5 % of the
// database; from 8 % on Linux and TELEPORT converge, both ahead of the base
// DDC; past 32 % — more than the monolithic server holds — only the DDC
// platforms have a row, and TELEPORT's beats the best Linux point.
func TestFig15ConvergesAndOnlyDDCContinues(t *testing.T) {
	tab, err := Run("15", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %v, want four memory points", tab.Rows)
	}
	bestLinux := 0.0
	for i, r := range tab.Rows {
		base, tele := parseS(t, r[2]), parseS(t, r[3])
		switch {
		case i == 3:
			if r[1] != "N/A" {
				t.Errorf("%s: linux has a cell (%s) past the monolithic server's capacity", r[0], r[1])
			}
			if tele >= bestLinux || tele >= base {
				t.Errorf("%s: teleport %.4fs does not beat the best linux point %.4fs and base DDC %.4fs", r[0], tele, bestLinux, base)
			}
		case i == 0:
			roomy := tab.Rows[2]
			for c := 1; c <= 3; c++ {
				if parseS(t, r[c]) < 5*parseS(t, roomy[c]) {
					t.Errorf("%s: %s = %s is not poor against %s at %s", r[0], tab.Header[c], r[c], roomy[c], roomy[0])
				}
			}
		default:
			linux := parseS(t, r[1])
			if rel := tele / linux; rel < 0.85 || rel > 1.15 {
				t.Errorf("%s: linux %.4fs and teleport %.4fs have not converged", r[0], linux, tele)
			}
			if tele >= base {
				t.Errorf("%s: teleport %.4fs is not ahead of base DDC %.4fs", r[0], tele, base)
			}
			if bestLinux == 0 || linux < bestLinux {
				bestLinux = linux
			}
		}
	}
}

// Figure 14's shape: with local memory constrained, a disaggregated memory pool
// beats spilling to the SSD by about an order of magnitude on every query, and
// TELEPORT at least doubles the base DDC's margin (paper: 10–80× and 210–330×;
// EXPERIMENTS.md names the SSD model behind the smaller magnitudes here).
func TestFig14DDCOneOrderTeleportTwo(t *testing.T) {
	tab, err := Run("14", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %v, want Q9, Q3 and Q6", tab.Rows)
	}
	for _, r := range tab.Rows {
		ddc, tele := parseX(t, r[4]), parseX(t, r[5])
		if ddc < 5 {
			t.Errorf("%s: base DDC only %.1fx faster than Linux+SSD", r[0], ddc)
		}
		if tele < 2*ddc {
			t.Errorf("%s: TELEPORT %.1fx over Linux+SSD is not twice the base DDC's %.1fx", r[0], tele, ddc)
		}
	}
}

func TestFig12TeleportBeatsBasePerOperator(t *testing.T) {
	tab, err := Run("12", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if parseX(t, r[4]) <= 1 {
			t.Fatalf("operator %s: pushdown did not beat base DDC (%s)", r[0], r[4])
		}
	}
}

func TestFig13AllWorkloadsBenefit(t *testing.T) {
	tab, err := Run("13", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want the 8 workloads", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		base := parseX(t, r[2])
		tele := parseX(t, r[3])
		speedup := parseX(t, r[4])
		if base < 1 {
			t.Errorf("%s: base DDC faster than local (%.1fx)", r[1], base)
		}
		if tele > base {
			t.Errorf("%s: TELEPORT slower than base DDC", r[1])
		}
		if speedup < 1 {
			t.Errorf("%s: no speedup (%.1fx)", r[1], speedup)
		}
	}
}

func TestFig16SpeedupMonotoneInClock(t *testing.T) {
	tab, err := Run("16", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range tab.Rows {
		s := parseX(t, r[2])
		if s < prev {
			t.Fatalf("speedup decreased with higher memory clock: %v", tab.Rows)
		}
		prev = s
	}
	first := parseX(t, tab.Rows[0][2])
	if first <= 1 {
		t.Fatalf("even a throttled memory pool should win (%.1fx)", first)
	}
}

func TestFig17SpeedupGrowsWithContexts(t *testing.T) {
	// The figure follows the pool topology like every other TPC-H figure;
	// its shape must hold on a sharded, replicated pool too.
	sharded := smallOpts()
	sharded.PoolShards, sharded.Replicas = 2, 2
	for _, opts := range []Options{smallOpts(), sharded} {
		tab, err := Run("17", opts)
		if err != nil {
			t.Fatal(err)
		}
		one := parseX(t, tab.Rows[0][2])
		two := parseX(t, tab.Rows[1][2])
		four := parseX(t, tab.Rows[3][2])
		if one != 1.0 {
			t.Fatalf("first row must be the baseline, got %.1fx", one)
		}
		if two < 1.5 {
			t.Fatalf("two contexts on two cores should near-double throughput (%.1fx)", two)
		}
		// Diminishing returns: 4 contexts gains less than 2× over 2 contexts.
		if four/two > 1.9 {
			t.Fatalf("no diminishing returns: 2ctx %.1fx, 4ctx %.1fx", two, four)
		}
	}
}

// The shapes of Figures 1a, 1b and 18 and of Ext A1 (EXPERIMENTS.md), which
// read the same TPC-H cells: the four run in one scope, so the base-DDC cells
// they share run once, and what each TELEPORT cell pushed is read off the
// memoised cells themselves — the executed plan, not only its time. At the
// committed sizes: at smallOpts' pushing Q3's Selection on top of the
// advisor's set is 0.5 % faster, and A1's shape is one of this scale.
//   - 1a: the base DDC beats spilling to the SSD, and TELEPORT beats the base DDC;
//   - 1b: SparkSQL < Vertica < coldb on the base DDC, and coldb on TELEPORT
//     < Vertica;
//   - 18: every pushed level beats None at both clocks, and Top 4 beats Top 1;
//   - A1: pushing everything is never faster than the advisor's cost-model set.
func TestFig1And18AndA1Shapes(t *testing.T) {
	opts, err := Defaults().resolve()
	if err != nil {
		t.Fatal(err)
	}
	tabs := map[string]*Table{}
	for _, id := range []string{"1a", "1b", "18", "A1"} {
		tabs[id] = figure(id)(opts)
	}

	if base, tele := parseX(t, tabs["1a"].Rows[1][1]), parseX(t, tabs["1a"].Rows[2][1]); base <= 1 || tele <= base {
		t.Errorf("Fig 1a: base DDC %.1fx and TELEPORT %.1fx over the SSD, want 1 < base < TELEPORT", base, tele)
	}

	cost := map[string]float64{}
	for _, r := range tabs["1b"].Rows {
		cost[r[0]] = parseX(t, r[1])
	}
	spark, vertica := cost["SparkSQL (distributed model)"], cost["Vertica (distributed model)"]
	base, tele := cost["coldb (Base DDC)"], cost["coldb (TELEPORT)"]
	if !(spark < vertica && vertica < base) || tele >= vertica {
		t.Errorf("Fig 1b: costs of scaling %v, want SparkSQL < Vertica < coldb base DDC and coldb TELEPORT < Vertica", cost)
	}

	rows := tabs["18"].Rows
	if len(rows) != 5 || rows[0][0] != "None" || rows[1][0] != "Top 1" || rows[2][0] != "Top 4" {
		t.Fatalf("Fig 18 rows = %v, want None, Top 1, Top 4, Top 6, All", rows)
	}
	for _, col := range []int{3, 5} {
		for _, r := range rows[1:] {
			if x := parseX(t, r[col]); x <= 1 {
				t.Errorf("Fig 18: %s at %s does not beat None (%.1fx)", r[0], tabs["18"].Header[col-1], x)
			}
		}
		if top1, top4 := parseX(t, rows[1][col]), parseX(t, rows[2][col]); top4 <= top1 {
			t.Errorf("Fig 18 at %s: Top 4 %.1fx does not beat Top 1 %.1fx", tabs["18"].Header[col-1], top4, top1)
		}
	}

	// A1's cells, asked for again: they are the figure's, so none runs.
	cells := len(opts.scope.cells)
	for _, w := range tpchQueries() {
		b := cell(w, opts, runSpec{platform: platBase})()
		costOps, _ := costModelPush(b)
		var all []string
		for _, o := range b.Profile {
			all = append(all, o.Name)
		}
		adv := cell(w, opts, runSpec{platform: platTeleport, pushOps: pushing(costOps)})()
		every := cell(w, opts, runSpec{platform: platTeleport, pushOps: pushing(all)})()
		if every.Time < adv.Time {
			t.Errorf("Ext A1 %s: pushing everything (%v) beats the advisor's cost-model set (%v)", w.Name, every.Time, adv.Time)
		}
	}
	if n := len(opts.scope.cells); n != cells {
		t.Errorf("asking for A1's cells again ran %d more", n-cells)
	}

	checked := 0
	for k, e := range opts.scope.cells {
		if k.spec.platform != platTeleport || !k.spec.pushOps.set {
			continue
		}
		want := strings.Split(k.spec.pushOps.v, ",")
		slices.Sort(want)
		var got []string
		for _, o := range e.v.Profile {
			if o.Pushed {
				got = append(got, o.Name)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s at %.2f GHz asked to push %v and pushed %v", k.w, k.spec.memClock, want, got)
		}
		checked++
	}
	if checked < 8 {
		t.Errorf("checked what %d cells pushed, want Fig 18's eight and A1's", checked)
	}
}

// Options are validated once, at the entry point, for every figure alike: an
// unknown chaos profile or an impossible pool topology is an error, never a
// fault-free or default-pool run. (Figures 17 and A5 used to build their own
// machines and ignore the topology; every figure used to swallow the
// profile error.)
func TestRunRejectsBadOptions(t *testing.T) {
	typo := smallOpts()
	typo.ChaosProfile = "typo"
	quorum := smallOpts()
	quorum.PoolShards, quorum.Replicas, quorum.WriteQuorum = 2, 2, 3
	for _, id := range []string{"13", "17", "A5"} {
		if _, err := Run(id, typo); err == nil || !strings.Contains(err.Error(), "typo") {
			t.Errorf("Run(%s) with an unknown chaos profile: err = %v", id, err)
		}
		if _, err := Run(id, quorum); err == nil || !strings.Contains(err.Error(), "quorum") {
			t.Errorf("Run(%s) with W > replicas: err = %v", id, err)
		}
	}
	if _, err := RunAll(typo); err == nil {
		t.Error("RunAll accepted an unknown chaos profile")
	}
	if _, err := RunCluster(typo, 2, 1); err == nil {
		t.Error("RunCluster accepted an unknown chaos profile")
	}
}

// The header of a figure run records every knob that shaped it: the pool
// topology appears when set and the default header is the committed one.
func TestHeaderRecordsTopology(t *testing.T) {
	if got, want := Defaults().Header(), "# ddcsim fig scale=2 graph-nv=60000 words=250000 seed=1 cache-frac=0.02\n\n"; got != want {
		t.Errorf("default header %q, want %q", got, want)
	}
	o := Defaults()
	o.PoolShards, o.Replicas, o.WriteQuorum = 4, 3, 2
	if got := o.Header(); !strings.HasSuffix(got, " cache-frac=0.02 pool-shards=4 replicas=3 write-quorum=2\n\n") {
		t.Errorf("header %q omits the pool topology", got)
	}
}

// columns runs figure id at the committed sizes and returns the named
// columns of its table, each as one cell per row.
func columns(t *testing.T, id string, cols ...int) [][]string {
	t.Helper()
	tab, err := Run(id, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(cols))
	for i, c := range cols {
		for _, r := range tab.Rows {
			out[i] = append(out[i], r[c])
		}
	}
	return out
}

func atoi(t *testing.T, cell string) int {
	t.Helper()
	v, err := strconv.Atoi(cell)
	if err != nil {
		t.Fatalf("bad count cell %q: %v", cell, err)
	}
	return v
}

// EXPERIMENTS.md A5: compute workers scale freely on a monolithic server —
// the local makespan halves per doubling — while TELEPORT stops improving at
// the memory pool's two user contexts.
func TestExtA5TeleportSaturatesAtTwoContexts(t *testing.T) {
	ms := func(cell string) float64 { return parseS(t, strings.TrimSuffix(cell, "ms")) }
	c := columns(t, "A5", 1, 3)
	local, tele := c[0], c[1]
	for i := 1; i < len(local); i++ {
		if r := ms(local[i-1]) / ms(local[i]); r < 1.8 || r > 2.2 {
			t.Errorf("local makespan %s → %s: ratio %.2f, want ≈2 per worker doubling", local[i-1], local[i], r)
		}
	}
	if !(ms(tele[1]) < ms(tele[0])) {
		t.Errorf("teleport-2ctx did not improve from 1 to 2 workers: %v", tele)
	}
	for i := 2; i < len(tele); i++ {
		if ms(tele[i]) < ms(tele[1]) {
			t.Errorf("teleport-2ctx kept improving beyond 2 workers: %v", tele)
		}
	}
}

// EXPERIMENTS.md A6: every answer is the fault-free one; replication turns
// shard-outage stalls into failover reads at both outage rates; unreplicated
// stalls grow with the outage rate. Rows: replicas 1,2,3 × light, heavy.
func TestExtA6ReplicationConvertsStallsToFailovers(t *testing.T) {
	c := columns(t, "A6", 2, 3, 5)
	correct, failovers, stalls := c[0], c[1], c[2]
	for i, cell := range correct {
		if cell != "yes" {
			t.Errorf("row %d answer differs from the fault-free run", i)
		}
	}
	for _, rate := range []int{0, 3} { // first row of the light and heavy blocks
		unreplicated := atoi(t, stalls[rate])
		if atoi(t, failovers[rate]) != 0 || unreplicated == 0 {
			t.Errorf("replicas=1 must stall, not fail over: failovers %s stalls %s", failovers[rate], stalls[rate])
		}
		for r := 1; r <= 2; r++ {
			if atoi(t, failovers[rate+r]) == 0 || atoi(t, stalls[rate+r]) >= unreplicated {
				t.Errorf("replicas=%d: failovers %s stalls %s, want failovers > 0 and stalls < %d",
					r+1, failovers[rate+r], stalls[rate+r], unreplicated)
			}
		}
	}
	if atoi(t, stalls[3]) <= atoi(t, stalls[0]) {
		t.Errorf("replicas=1 stalls must grow with the outage rate: light %s heavy %s", stalls[0], stalls[3])
	}
}

// EXPERIMENTS.md A7: every answer is the fault-free one; at W=3 nothing is
// left to replay and writes stall for their quorum; the price of consistency
// (slowdown) never falls as W rises. Rows: W 1,2,3 × light, heavy.
func TestExtA7QuorumTradesHandoffsForStalls(t *testing.T) {
	c := columns(t, "A7", 2, 4, 7, 10)
	correct, replays, qstalls, slow := c[0], c[1], c[2], c[3]
	for i, cell := range correct {
		if cell != "yes" {
			t.Errorf("row %d answer differs from the fault-free run", i)
		}
	}
	for _, rate := range []int{0, 3} {
		if atoi(t, replays[rate+2]) != 0 || atoi(t, qstalls[rate+2]) == 0 {
			t.Errorf("W=3: replays %s quorum-stalls %s, want 0 and > 0", replays[rate+2], qstalls[rate+2])
		}
		for w := 1; w <= 2; w++ {
			if parseX(t, slow[rate+w]) < parseX(t, slow[rate+w-1]) {
				t.Errorf("slowdown fell from W=%d to W=%d: %s → %s", w, w+1, slow[rate+w-1], slow[rate+w])
			}
		}
	}
}

func TestRunWorkloadPublicAPI(t *testing.T) {
	opts := smallOpts()
	res, err := RunWorkload("Q6", "base-ddc", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nanos <= 0 || len(res.Ops) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := RunWorkload("Q6", "nope", opts); err == nil {
		t.Fatal("bad platform accepted")
	}
	if _, err := RunWorkload("nope", "local", opts); err == nil {
		t.Fatal("bad workload accepted")
	}
	if len(WorkloadNames()) != 11 || len(PlatformNames()) != 5 {
		t.Fatal("name lists wrong")
	}
	// The advisor-backed platform must run end to end.
	auto, err := RunWorkload("Q6", "teleport-auto", opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Nanos >= res.Nanos {
		t.Fatalf("teleport-auto (%dns) should beat base-ddc (%dns)", auto.Nanos, res.Nanos)
	}
}

func TestCacheBytesFloor(t *testing.T) {
	if cacheBytes(1<<30, 0.02) != (1<<30)/50 {
		t.Fatal("fraction not applied")
	}
	if cacheBytes(100, 0.02) < 48*4096 {
		t.Fatal("floor not applied")
	}
}

func TestDefaultsSane(t *testing.T) {
	o := Defaults()
	if o.Scale <= 0 || o.GraphNV <= 0 || o.Words <= 0 || o.CacheFrac <= 0 {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestExtA3RLEGrowsWithCache(t *testing.T) {
	tab, err := Run("A3", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range tab.Rows {
		red := parseX(t, r[4])
		if red < prev {
			t.Fatalf("RLE reduction should grow with the cache: %v", tab.Rows)
		}
		prev = red
	}
}

func TestExtA4PrefetchPlateausBelowTeleport(t *testing.T) {
	tab, err := Run("A4", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows
	bestPrefetch := 0.0
	for _, r := range rows[:len(rows)-1] {
		if v := parseX(t, r[2]); v > bestPrefetch {
			bestPrefetch = v
		}
	}
	tele := parseX(t, rows[len(rows)-1][2])
	if tele <= bestPrefetch {
		t.Fatalf("TELEPORT (%.1fx) must beat the best prefetch depth (%.1fx)", tele, bestPrefetch)
	}
}

func TestExtA2SpeedupShrinksWithFasterFabric(t *testing.T) {
	tab, err := Run("A2", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := 1e18
	for _, r := range tab.Rows {
		s := parseX(t, r[5])
		if s > prev {
			t.Fatalf("speedup should not grow on faster fabrics: %v", tab.Rows)
		}
		if s <= 1 {
			t.Fatalf("pushdown must still win on %s", r[0])
		}
		prev = s
	}
}

func TestTraceCapReturnsEvents(t *testing.T) {
	opts := smallOpts()
	opts.TraceCap = 32
	res, err := RunWorkload("Q6", "teleport", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("expected trace events")
	}
}

// TestEveryFigureRunsAtTinyScale smoke-tests every registered runner,
// including the slow sweeps, at a minimal scale (skipped with -short).
func TestEveryFigureRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: regenerates every figure")
	}
	tiny := Options{Scale: 0.2, GraphNV: 4000, Words: 15000, Seed: 1, CacheFrac: 0.02}
	for _, id := range Figures() {
		tab, err := Run(id, tiny)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("figure %s produced no rows", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) && len(row) != 0 {
				t.Fatalf("figure %s row width %d vs header %d", id, len(row), len(tab.Header))
			}
		}
	}
}
