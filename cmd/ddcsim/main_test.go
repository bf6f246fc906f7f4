package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teleport/internal/bench"
)

// The files under testdata/ are the stdout (and artifact files) of the two
// pre-verb binaries, recorded at the commit before cmd/teleport-bench was
// folded into ddcsim:
//
//	ddcsim -workload Q6 -platform teleport -scale 0.25 -report
//	ddcsim -workload Q6,SSSP -platform base-ddc -scale 0.25 -graph-nv 4000
//	ddcsim -workload Q6 -platform teleport -scale 0.25 -chaos-profile chaos -percentiles -incident-events 64 \
//	    -profile-out p.folded -incident-out i.jsonl -metrics-out m.json -trace-dump t.txt
//	ddcsim -cluster 4 -cluster-rounds 2 -scale 0.25 -sim-workers {1,4}
//	ddcsim -advise -workload Q9 -scale 0.25
//	ddcsim -chaos-profile list
//	teleport-bench -fig 17,A5,A6,A7,20 -scale 0.5
//	teleport-bench -list
//
// and of cmd/datagen (seed 1), recorded at the commit before it became a verb:
//
//	datagen -kind tpch -scale 0.25
//	datagen -kind graph -nv 4000
//	datagen -kind corpus -words 20000
//
// The verbs must reproduce them byte for byte. run_trace_tail.txt and
// cluster_chaos.txt are the files recorded from the verbs themselves: the old
// -trace tail printed a wrapped ring without saying so, and the cluster under
// faults was pinned later, from
//
//	ddcsim cluster -cluster 8 -cluster-rounds 4 -scale 2 -chaos-profile partition-chaos \
//	    -pool-shards 4 -replicas 3 -write-quorum 2
//
// which shows 3 pool stalls and a retried sync message. run_policy.txt and
// run_policy_nobreaker.txt carry the pushdown-policy flags through to a
// runtime; they were recorded before those flags became one core.Policy, from
//
//	ddcsim run -workload Q9 -platform teleport -scale 0.25 -chaos-profile chaos \
//	    -push-deadline-us 200 {-breaker-threshold 1 -breaker-cooldown-us 100 | -breaker-threshold -1}
//
// where a threshold of -1 turned the breaker off, as 0 does now. The two metrics.json
// files were re-recorded when the typed stats became the only counters: their
// histograms are the old binary's bytes, and every counter and gauge it wrote
// keeps its value among the now fixed key set. The chaos run above is
// replayed without -incident-events 64: every ring arms the flight
// recorder with that window (obs.DefaultIncidentEvents), so its artifact
// files are the old bytes. Two stdout files were re-recorded from the verb
// when every printed section became derived from a recorder: run_chaos.txt
// lost the percentile table's mode column with the exact-quantile path, and
// run_trace_tail.txt gained the hot-path table of its 8-event ring.

// ddcsim runs one in-process invocation and returns its stdout.
func ddcsim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := cli(args, &stdout, &stderr); code != 0 {
		t.Fatalf("ddcsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestVerbsReproduceRecordedOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"run_report.txt", "run -workload Q6 -platform teleport -scale 0.25 -report"},
		{"run_multi.txt", "run -workload Q6,SSSP -platform base-ddc -scale 0.25 -graph-nv 4000"},
		{"cluster.txt", "cluster -cluster 4 -cluster-rounds 2 -scale 0.25 -sim-workers 1"},
		{"cluster.txt", "cluster -cluster 4 -cluster-rounds 2 -scale 0.25 -sim-workers 4"},
		{"cluster_chaos.txt", "cluster -cluster 8 -cluster-rounds 4 -scale 2 -chaos-profile partition-chaos -pool-shards 4 -replicas 3 -write-quorum 2 -sim-workers 1"},
		{"cluster_chaos.txt", "cluster -cluster 8 -cluster-rounds 4 -scale 2 -chaos-profile partition-chaos -pool-shards 4 -replicas 3 -write-quorum 2 -sim-workers 4"},
		{"advise.txt", "advise -workload Q9 -scale 0.25"},
		{"profiles.txt", "profiles"},
		{"fig.txt", "fig -fig 17,A5,A6,A7,20 -scale 0.5"},
		{"list.txt", "fig -list"},
		{"datagen_tpch.txt", "datagen -kind tpch -scale 0.25"},
		{"datagen_graph.txt", "datagen -kind graph -graph-nv 4000"},
		{"datagen_corpus.txt", "datagen -kind corpus -words 20000"},
		{"run_trace_tail.txt", "run -workload Q6 -platform teleport -scale 0.25 -trace 8"},
		{"run_policy.txt", "run -workload Q9 -platform teleport -scale 0.25 -chaos-profile chaos -push-deadline-us 200 -breaker-threshold 1 -breaker-cooldown-us 100"},
		{"run_policy_nobreaker.txt", "run -workload Q9 -platform teleport -scale 0.25 -chaos-profile chaos -push-deadline-us 200 -breaker-threshold 0"},
	} {
		want := golden(t, tc.golden)
		// The figure header names the command that printed it; everything
		// below it is the old binary's bytes.
		want = strings.Replace(want, "# teleport-bench ", "# ddcsim fig ", 1)
		if got := ddcsim(t, strings.Fields(tc.args)...); got != want {
			t.Errorf("ddcsim %s differs from testdata/%s:\n--- got ---\n%s--- want ---\n%s", tc.args, tc.golden, got, want)
		}
	}
}

func TestRunArtifactsReproduceRecordedFiles(t *testing.T) {
	type artifact struct{ flag, name, golden string } // name: the file as the recorded stdout calls it
	for _, tc := range []struct {
		args   string
		stdout string // recorded stdout ("" = not pinned)
		files  []artifact
	}{
		{
			args:   "run -workload Q6 -platform teleport -scale 0.25 -chaos-profile chaos -percentiles",
			stdout: "run_chaos.txt",
			files: []artifact{
				{"-profile-out", "p.folded", "run_chaos.folded"},
				{"-incident-out", "i.jsonl", "run_chaos.incidents.jsonl"},
				{"-metrics-out", "m.json", "run_chaos.metrics.json"},
				{"-trace-dump", "t.txt", "run_chaos.events.txt"},
			},
		},
		// The counters the Q6 run never moves — shard.*, pool.stall, eviction,
		// prefetch — on a 4-shard R=3 W=2 pool under link partitions.
		{
			args:  "run -workload SSSP -platform base-ddc -graph-nv 16000 -chaos-profile partition-chaos -pool-shards 4 -replicas 3 -write-quorum 2",
			files: []artifact{{"-metrics-out", "m.json", "run_sharded.metrics.json"}},
		},
	} {
		dir := t.TempDir()
		args := strings.Fields(tc.args)
		for _, f := range tc.files {
			args = append(args, f.flag, filepath.Join(dir, f.name))
		}
		got := strings.ReplaceAll(ddcsim(t, args...), dir+string(filepath.Separator), "")
		if tc.stdout != "" && got != golden(t, tc.stdout) {
			t.Errorf("stdout differs from testdata/%s:\n--- got ---\n%s--- want ---\n%s", tc.stdout, got, golden(t, tc.stdout))
		}
		for _, f := range tc.files {
			b, err := os.ReadFile(filepath.Join(dir, f.name))
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != golden(t, f.golden) {
				t.Errorf("%s file differs from testdata/%s", f.flag, f.golden)
			}
		}
	}
}

// A wrapped ring says so in the -trace-dump file as in the -trace tail (the
// run_trace_tail.txt golden), so a suffix of the run is never read as all of it.
func TestTraceDumpReportsDroppedEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	ddcsim(t, strings.Fields("run -workload Q6 -platform teleport -scale 0.25 -trace 8 -trace-dump "+path)...)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(string(b), "\n"); lines[0] != "# dropped 28 events" || len(lines) != 10 {
		t.Errorf("dump of a wrapped 8-event ring = %d lines starting %q, want the dropped header + 8 events", len(lines)-1, lines[0])
	}
}

// Every flag name is declared by exactly one binder group, and a verb's flag
// set is exactly the union of its groups.
func TestEveryFlagDeclaredOnce(t *testing.T) {
	owner := map[string]string{} // flag → group
	seen := map[string]bool{}    // group names visited
	for _, v := range verbs {
		want := map[string]bool{}
		for _, g := range v.groups {
			b := &binder{fs: flag.NewFlagSet(g.name, flag.ContinueOnError)}
			g.bind(b)
			b.fs.VisitAll(func(f *flag.Flag) {
				want[f.Name] = true
				if prev, ok := owner[f.Name]; ok && prev != g.name {
					t.Errorf("flag -%s declared by groups %q and %q", f.Name, prev, g.name)
				}
				owner[f.Name] = g.name
			})
			seen[g.name] = true
		}
		n := 0
		v.bind(io.Discard).fs.VisitAll(func(f *flag.Flag) {
			n++
			if !want[f.Name] {
				t.Errorf("verb %s has flag -%s outside its groups", v.name, f.Name)
			}
		})
		if n != len(want) {
			t.Errorf("verb %s binds %d flags, its groups declare %d", v.name, n, len(want))
		}
	}
	if len(owner) > 34+len(hostProfiles) {
		t.Errorf("%d flags declared; the two CLIs this replaced had 34 distinct names, the host profiles are %d more, and none may be added", len(owner), len(hostProfiles))
	}
	if len(seen) < 6 {
		t.Errorf("only %d groups reachable from the verbs", len(seen))
	}
}

func TestVerbRejectsForeignFlag(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"cluster -report", "-report"},
		{"fig -chaos-seed 3", "-chaos-seed"},
		{"advise -platform teleport", "-platform"},
		{"profiles -scale 2", "-scale"},
		{"datagen -report", "-report"},
		{"datagen -deg 6", "-deg"},
		{"cluster -cpuprofile x", "-cpuprofile"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(strings.Fields(tc.args), &stdout, &stderr); code == 0 {
			t.Errorf("ddcsim %s: exit 0, want a parse error", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("ddcsim %s: stderr does not name %s:\n%s", tc.args, tc.flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("ddcsim %s: ran despite the foreign flag:\n%s", tc.args, stdout.String())
		}
	}
}

func TestCLIErrors(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"", "usage: ddcsim <verb>"},
		{"bench", "usage: ddcsim <verb>"},
		{"run Q6", `unexpected argument "Q6"`},
		{"run -workload Q6 -chaos-profile list", "unknown profile"},
		{"run -workload Q6,SSSP -metrics-out m.json", "-metrics-out needs a single -workload"},
		{"run -workload Q6 -platform teleport -replicas 3 -pool-shards 2", "replicas cannot exceed pool shards"},
		{"fig -fig 99", `unknown figure "99"`},
		{"fig -fig 6,99", `unknown figure "99"`},
		{"cluster -cluster 0", "machines ≥ 1"},
		{"datagen -kind rows", "unknown dataset kind"},
		{"run -workload SSSP -graph-nv 0", "-graph-nv must be ≥ 1, got 0"},
		{"run -workload WC -words 0", "-words must be ≥ 1, got 0"},
		{"datagen -kind graph -graph-nv 0", "-graph-nv must be ≥ 1"},
		{"datagen -kind corpus -words -3", "-words must be ≥ 1, got -3"},
		{"advise -workload SSSP -graph-nv 0", "-graph-nv must be ≥ 1"},
		{"fig -fig 3 -graph-nv 0", "-graph-nv must be ≥ 1"},
		{"cluster -words 0", "-words must be ≥ 1"},
		{"run -workload Q6 -scale NaN", "-scale must be a finite number > 0, got NaN"},
		{"run -workload Q6 -scale Inf", "-scale must be a finite number > 0, got +Inf"},
		{"run -workload Q6 -scale 0", "-scale must be a finite number > 0, got 0"},
		{"fig -fig 3 -scale -1", "-scale must be a finite number > 0, got -1"},
		{"datagen -kind tpch -scale 0", "-scale must be a finite number > 0, got 0"},
		{"run -workload Q6 -cache-frac NaN", "-cache-frac must be a finite number ≥ 0, got NaN"},
		{"run -workload Q6 -cache-frac -0.5", "-cache-frac must be a finite number ≥ 0, got -0.5"},
		{"advise -workload Q6 -cache-frac +Inf", "-cache-frac must be a finite number ≥ 0, got +Inf"},
		{"run -workload Q9 -platform teleport -chaos-profile chaos -push-deadline-us NaN", "-push-deadline-us must be a finite number ≥ 0 below 9.223372036854776e+15, got NaN"},
		{"run -workload Q9 -push-deadline-us Inf", "-push-deadline-us must be a finite number ≥ 0 below 9.223372036854776e+15, got +Inf"},
		{"run -workload Q9 -push-deadline-us 1e300", "-push-deadline-us must be a finite number ≥ 0 below 9.223372036854776e+15, got 1e+300"},
		{"run -workload Q9 -push-deadline-us 9.3e15", "-push-deadline-us must be a finite number ≥ 0 below 9.223372036854776e+15, got 9.3e+15"},
		{"run -workload Q9 -push-deadline-us -5", "-push-deadline-us must be a finite number ≥ 0 below 9.223372036854776e+15, got -5"},
		{"run -workload Q9 -breaker-cooldown-us -1", "-breaker-cooldown-us must be a finite number ≥ 0 below 9.223372036854776e+15, got -1"},
		{"run -workload Q9 -breaker-cooldown-us -Inf", "-breaker-cooldown-us must be a finite number ≥ 0 below 9.223372036854776e+15, got -Inf"},
		{"run -workload Q9 -push-queue-cap -2", "flag provided but not defined: -push-queue-cap"},
		{"run -workload Q9 -breaker-threshold -1", "-breaker-threshold must be ≥ 0, got -1"},
		{"run -workload Q6 -trace -5", "-trace must be ≥ 0, got -5"},
		{"run -workload Q6 -exact-quantiles 1", "flag provided but not defined: -exact-quantiles"},
		{"run -workload Q6 -incident-events 1", "flag provided but not defined: -incident-events"},
		{"run -workload Q6 -parallel -3", "-parallel must be ≥ 0, got -3"},
		{"fig -fig 3 -parallel -1", "-parallel must be ≥ 0, got -1"},
		{"cluster -sim-workers -4", "-sim-workers must be ≥ 0, got -4"},
	} {
		var stdout, stderr bytes.Buffer
		code := cli(strings.Fields(tc.args), &stdout, &stderr)
		if code == 0 {
			t.Errorf("ddcsim %s: exit 0, want failure", tc.args)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("ddcsim %s: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
		if strings.Contains(tc.want, " must be ") && (code != 1 || stdout.Len() != 0) { // a flag check runs before the verb
			t.Errorf("ddcsim %s: exit %d, printed before failing:\n%s", tc.args, code, stdout.String())
		}
		if strings.HasPrefix(tc.want, "flag provided but not defined") && code != 2 {
			t.Errorf("ddcsim %s: exit %d, want the parse error's 2", tc.args, code)
		}
	}
}

// A run records into two recorders, the event ring and the metrics registry,
// and every section it prints is derived from them: the latency table iff a
// registry, the hot-path table iff a ring, the incident summary iff a ring on
// a chaos run. An artifact attaches the recorders its file is read off.
func TestSectionsFollowTheRecorders(t *testing.T) {
	dir := t.TempDir()
	covered := map[string]bool{}
	for _, tc := range []struct {
		flag, arg string
		ring, reg bool
	}{
		{"", "", false, false},
		{"-trace", "8", true, false},
		{"-percentiles", "", false, true},
		{"-trace-out", "t.json", true, false},
		{"-trace-dump", "t.txt", true, false},
		{"-metrics-out", "m.json", false, true},
		{"-profile-out", "p.folded", true, false},
		{"-incident-out", "i.jsonl", true, false},
		{"-report-out", "r.json", true, true},
	} {
		covered[tc.flag] = true
		for _, chaos := range []string{"none", "chaos"} {
			args := strings.Fields("run -workload Q6 -platform teleport -scale 0.25 -chaos-profile " + chaos + " " + tc.flag)
			if strings.Contains(tc.arg, ".") {
				args = append(args, filepath.Join(dir, tc.arg))
			} else if tc.arg != "" {
				args = append(args, tc.arg)
			}
			out := ddcsim(t, args...)
			for _, sec := range []struct {
				marker string
				want   bool
			}{
				{"latency percentiles", tc.reg},
				{"hot span paths", tc.ring},
				{"incidents: ", tc.ring && chaos == "chaos"},
			} {
				if strings.Contains(out, sec.marker) != sec.want {
					t.Errorf("ddcsim %s: section %q printed = %v, want %v", strings.Join(args, " "), sec.marker, !sec.want, sec.want)
				}
			}
		}
	}
	for _, a := range artifacts {
		if !covered["-"+a.flag] {
			t.Errorf("artifact -%s has no row", a.flag)
		}
	}
}

// -report-out writes every section its help names with no other flag: on a
// chaos run the incident summary too.
func TestReportOutCarriesEverySection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	ddcsim(t, strings.Fields("run -workload Q6 -platform teleport -scale 0.25 -chaos-profile chaos -report-out "+path)...)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Schema         int               `json:"schema"`
		Latency        []json.RawMessage `json:"latency"`
		HotPaths       []json.RawMessage `json:"hot_paths"`
		IncidentsTotal int               `json:"incidents_total"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Schema != bench.ReportSchema || len(r.Latency) == 0 || len(r.HotPaths) == 0 || r.IncidentsTotal < 1 {
		t.Errorf("report: schema %d, %d latency rows, %d hot paths, %d incidents; want schema %d and every section non-empty",
			r.Schema, len(r.Latency), len(r.HotPaths), r.IncidentsTotal, bench.ReportSchema)
	}
}

// Every data point of a run starts its runtime from the one core.Policy the
// flags fill, read concurrently under -parallel: two workloads with the
// policy flags print at -parallel 2 the bytes they print at -parallel 1.
// CI runs this under the race detector.
func TestRunPolicyParallelMatchesSequential(t *testing.T) {
	args := strings.Fields("run -workload Q9,WC -platform teleport -scale 0.25 -words 20000 -chaos-profile chaos" +
		" -push-deadline-us 200 -breaker-threshold 1 -breaker-cooldown-us 100 -parallel")
	seq := ddcsim(t, append(args, "1")...)
	if par := ddcsim(t, append(args, "2")...); par != seq {
		t.Errorf("-parallel 2 differs from -parallel 1:\n--- parallel ---\n%s--- sequential ---\n%s", par, seq)
	}
}

// The host profiles are about the simulator, not the simulated machine: asking
// for them leaves two pprof files and changes no byte of the output.
func TestHostProfilesLeaveOutputAlone(t *testing.T) {
	dir := t.TempDir()
	args := []string{"run", "-workload", "Q6", "-platform", "teleport", "-scale", "0.25"}
	var plain, profiled, stderr bytes.Buffer
	if code := cli(args, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := cli(append(args, "-cpuprofile", cpu, "-memprofile", heap), &profiled, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("output differs under the profile flags:\n%s\nwithout:\n%s", profiled.String(), plain.String())
	}
	for _, path := range []string{cpu, heap} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
