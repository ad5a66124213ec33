package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"refidem/internal/lang"
)

// TestMain lets the test binary serve as bench's keep-awake child:
// keepAwake (awake.go) re-executes its own binary with -spin, and under
// go test that binary is this one.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-spin" {
		spin()
	}
	os.Exit(m.Run())
}

// Small pass sizes keep the tests fast; the generators are the same.
const (
	testPerProfile = 2
	testPerProcs   = 2
	testEpochs     = 2
)

func labelBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	reqs, err := labelRequests(seed, testPerProfile)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range reqs {
		out = append(out, r.body)
	}
	return out
}

func simBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	reqs, err := simRequests(seed, testPerProcs)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range reqs {
		out = append(out, r.body)
	}
	return out
}

func editBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	plan, err := editRequests(seed, testEpochs)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{encode(gen0Items(plan))}
	for _, round := range plan.rounds {
		for _, e := range round {
			out = append(out, encode(e.delta()), []byte(e.composed))
		}
	}
	return out
}

// TestRequestsArePureFunctionsOfSeed pins that one seed gives
// byte-identical requests and another seed different ones.
func TestRequestsArePureFunctionsOfSeed(t *testing.T) {
	for name, gen := range map[string]func(*testing.T, int64) [][]byte{
		"label-cold":     labelBodies,
		"simulate-sweep": simBodies,
		"edit-batch":     editBodies,
	} {
		a, b, c := gen(t, 7), gen(t, 7), gen(t, 8)
		if !equalBodies(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", name)
		}
		if equalBodies(a, c) {
			t.Errorf("%s: seeds 7 and 8 give identical requests", name)
		}
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestLabelProgramsAreDistinct(t *testing.T) {
	reqs, err := labelRequests(1, testPerProfile)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	deps := 0
	for _, r := range reqs {
		if seen[r.fp] {
			t.Fatalf("program %s sent twice", r.fp)
		}
		seen[r.fp] = true
		if r.req.Deps {
			deps++
		}
	}
	if want := 15 * testPerProfile; len(reqs) != want {
		t.Fatalf("%d requests, want %d", len(reqs), want)
	}
	if deps != 0 { // a quarter of 2 per profile rounds down to none
		t.Fatalf("%d deps requests, want 0", deps)
	}
}

func TestSimulatePointsNeverRepeat(t *testing.T) {
	reqs, err := simRequests(3, simPerProcs)
	if err != nil {
		t.Fatal(err)
	}
	type point struct{ loop, procs, capacity int }
	seen := map[point]bool{}
	for _, r := range reqs {
		p := point{r.loop, r.req.Procs, r.req.Capacity}
		if seen[p] {
			t.Fatalf("point %+v repeats", p)
		}
		seen[p] = true
		if p.capacity < simMinCap || p.capacity > simMaxCap || p.procs < 1 || p.procs > simMaxProcs {
			t.Fatalf("point %+v out of range", p)
		}
	}
	if want := 11 * simMaxProcs * simPerProcs; len(reqs) != want {
		t.Fatalf("%d requests, want %d", len(reqs), want)
	}
}

// TestEditsChain checks that every edit starts from the program's
// previous version and yields a new, parseable one.
func TestEditsChain(t *testing.T) {
	plan, err := editRequests(5, testEpochs)
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]string(nil), plan.fp0...)
	seen := map[string]bool{}
	for _, fp := range cur {
		seen[fp] = true
	}
	edits := map[int]int{}
	for r, round := range plan.rounds {
		if len(round) != editsPerRound {
			t.Fatalf("round %d has %d edits", r, len(round))
		}
		for _, e := range round {
			if e.base != cur[e.prog] {
				t.Fatalf("round %d: edit of program %d starts from %s, current is %s", r, e.prog, e.base, cur[e.prog])
			}
			if seen[e.fp] {
				t.Fatalf("round %d: program %d revisits version %s", r, e.prog, e.fp)
			}
			if fp, err := fingerprintHex(e.composed); err != nil || fp != e.fp {
				t.Fatalf("round %d: composed program %v, fingerprint %s want %s", r, err, fp, e.fp)
			}
			if _, err := lang.Parse(e.composed); err != nil {
				t.Fatal(err)
			}
			seen[e.fp] = true
			cur[e.prog] = e.fp
			edits[e.prog]++
		}
	}
	for i := 0; i < projectSize; i++ {
		if edits[i] != testEpochs {
			t.Fatalf("program %d edited %d times, want %d", i, edits[i], testEpochs)
		}
	}
}

// buildDaemon builds refidemd from the enclosing checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "refidemd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/refidemd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building refidemd: %v\n%s", err, out)
	}
	return bin
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

// TestShortRuns runs every workload briefly against a real refidemd, end
// to end and traced, and checks that nothing fails and that the printed
// metrics are exactly the ones BENCHMARK.json declares.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs refidemd")
	}
	bin := buildDaemon(t)
	for _, w := range []string{"label-cold", "simulate-sweep", "edit-batch"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var log bytes.Buffer
				res, err := bench(context.Background(), options{
					workload: w, seed: 2, seconds: time.Second, trace: trace == "1",
					refidemd: bin, work: t.TempDir(),
					labelPerProfile: testPerProfile, simPerProcs: testPerProcs, editEpochs: testEpochs,
				}, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				key := "end_to_end"
				if trace == "1" {
					key = "per_layer"
				}
				names := declared(t, key)
				if len(res.Metrics) != len(names) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(names))
				}
				for _, n := range names {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("metric %s missing", n)
						continue
					}
					if m.Value == 0 {
						t.Errorf("metric %s is 0", n)
					}
				}
				if trace == "0" && res.Metrics["ok_pct"].Value != 100 {
					t.Errorf("ok_pct = %v, want 100", res.Metrics["ok_pct"].Value)
				}
			})
		}
	}
}
