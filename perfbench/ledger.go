package main

// The traced run: an in-process replay that times calls into each
// layer's public functions from outside the program and reports the
// per-layer metrics. Each layer is measured on the workload that
// exercises it (its home workload); the run's own workload gets its whole
// request list, the other families a short prefix of theirs, so every
// traced run reports every per-layer metric.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"refidem/internal/api"
	"refidem/internal/cfg"
	"refidem/internal/cluster"
	"refidem/internal/deps"
	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/service"
	"refidem/internal/store"
	"refidem/internal/workloads"
)

// span is one timed call: its name, its interval relative to the
// recorder's start, the span that caused it and the request it served.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Req: req,
		Start: now().Sub(r.t0).Nanoseconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = now().Sub(r.t0).Nanoseconds() }

// timed records fn as a span.
func (r *recorder) timed(name string, parent, req int, fn func()) {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
}

// totals sums span time by name, and self time: a span's duration minus
// the time its children cover. Children of one span run one after the
// other, so their durations add up without overlap.
func (r *recorder) totals() (total, self map[string]time.Duration, count map[string]int) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d
		count[s.Name]++
		if s.Parent != 0 {
			self[r.spans[s.Parent-1].Name] -= d
		}
	}
	return total, self, count
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// mean is the span time of name per request, in µs.
func mean(total map[string]time.Duration, name string, n int) float64 {
	return float64(total[name].Nanoseconds()) / 1e3 / float64(n)
}

// allocs counts heap allocations per call of fn over n calls.
func allocs(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// cpuClasses reads the Go runtime's GC, total and idle CPU estimates.
func cpuClasses() (gc, total, idle float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// allocSample is how many label requests the allocation counts use.
const allocSample = 150

// runLedger runs the traced replay and returns the per-layer metrics.
// Replayed requests are counted in t, and failed checks too.
func runLedger(ctx context.Context, o options, t *tally) (map[string]metric, error) {
	rec := newRecorder()
	out := map[string]metric{}
	scale := func(home string, full, short int) int {
		if o.workload == home {
			return full
		}
		return short
	}
	if err := traceLabel(ctx, rec, t, o.seed, scale("label-cold", o.labelPerProfile, 10), out); err != nil {
		return nil, fmt.Errorf("label replay: %w", err)
	}
	if err := traceSimulate(ctx, rec, t, o.seed, scale("simulate-sweep", o.simPerProcs, 2), out); err != nil {
		return nil, fmt.Errorf("simulate replay: %w", err)
	}
	if err := traceEdit(ctx, rec, t, o, scale("edit-batch", o.editEpochs, 2), out); err != nil {
		return nil, fmt.Errorf("edit replay: %w", err)
	}
	if err := traceRoute(ctx, o.seed, out); err != nil {
		return nil, fmt.Errorf("route probe: %w", err)
	}
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	total, self, count := rec.totals()
	for _, name := range slices.Sorted(maps.Keys(count)) {
		fmt.Fprintf(t.log, "perfbench: span %-18s %7d calls, total %9.1f ms, self %9.1f ms\n",
			name, count[name], ms(total[name]), ms(self[name]))
	}
	return out, nil
}

// traceLabel replays label requests layer by layer: parse, fingerprint,
// label and dependence analysis from outside the service, then the whole
// request through an in-process service.
func traceLabel(ctx context.Context, rec *recorder, t *tally, seed int64, perProfile int, out map[string]metric) error {
	reqs, err := labelRequests(seed, perProfile)
	if err != nil {
		return err
	}
	n := len(reqs)
	for k, r := range reqs {
		id := k + 1
		root := rec.begin("request", 0, id)
		var prog *ir.Program
		var perr error
		rec.timed("lang.parse", root, id, func() { prog, perr = lang.Parse(r.req.Program) })
		if perr != nil {
			return perr
		}
		rec.timed("ir.fingerprint", root, id, func() { ir.FingerprintOf(prog) })
		rec.timed("idem.label", root, id, func() { idem.LabelProgram(prog) })
		rec.timed("deps.analyze", root, id, func() {
			for _, reg := range prog.Regions {
				deps.Analyze(reg, cfg.FromRegion(reg))
			}
		})
		rec.end(root)
	}

	// Whole requests on a fresh service. The Go runtime's GC share is
	// read over the replay.
	srv := service.New(service.DefaultConfig())
	defer srv.Close()
	var bytesOut int64
	gc0, tot0, idle0 := cpuClasses()
	for k, r := range reqs {
		req := r.req
		req.Op = api.OpLabel
		var resp []byte
		var derr error
		rec.timed("service.do", 0, k+1, func() { resp, derr = srv.Do(ctx, req) })
		t.attempted++
		if derr != nil {
			t.fail("label request %d: %v", k, derr)
			continue
		}
		if fp := fingerprint(resp); fp != r.fp {
			t.fail("label request %d: fingerprint %q, want %q", k, fp, r.fp)
		}
		bytesOut += int64(len(resp))
	}
	gc1, tot1, idle1 := cpuClasses()
	total, _, _ := rec.totals()
	parse := mean(total, "lang.parse", n)
	fp := mean(total, "ir.fingerprint", n)
	label := mean(total, "idem.label", n)
	do := mean(total, "service.do", n)

	// Allocation counts, untimed, over a prefix of the list.
	m := min(allocSample, len(reqs))
	progs := make([]*ir.Program, m)
	parseAllocs := allocs(m, func(i int) { progs[i], _ = lang.Parse(reqs[i].req.Program) })
	fpAllocs := allocs(m, func(i int) { ir.FingerprintOf(progs[i]) })
	labelAllocs := allocs(m, func(i int) { idem.LabelProgram(progs[i]) })
	fresh := service.New(service.DefaultConfig())
	doAllocs := allocs(m, func(i int) {
		req := reqs[i].req
		req.Op = api.OpLabel
		fresh.Do(ctx, req)
	})
	fresh.Close()

	out["lang.parse_us"] = metric{parse, "us"}
	out["lang.parse_allocs"] = metric{parseAllocs, "count"}
	out["ir.fingerprint_us"] = metric{fp, "us"}
	out["ir.fingerprint_allocs"] = metric{fpAllocs, "count"}
	out["idem.label_us"] = metric{label, "us"}
	out["idem.label_allocs"] = metric{labelAllocs, "count"}
	out["deps.analyze_us"] = metric{mean(total, "deps.analyze", n), "us"}
	out["service.do_us"] = metric{do, "us"}
	out["service.self_us"] = metric{do - parse - fp - label, "us"}
	out["service.allocs_per_req"] = metric{doAllocs, "count"}
	out["service.response_bytes"] = metric{float64(bytesOut) / float64(n), "B"}
	out["runtime.gc_cpu_pct"] = metric{100 * (gc1 - gc0) / ((tot1 - tot0) - (idle1 - idle0)), "%"}
	// The label replay is the recorder's first, so every span so far is
	// one of its requests'.
	out["trace.overhead_us"] = metric{spanCost() * float64(len(rec.spans)) / float64(n), "us"}
	return nil
}

// spanProbes is how many spans price the tracer.
const spanProbes = 100_000

// spanCost is the tracer's cost per span in µs: begin and end on a
// scratch recorder, timed over spanProbes spans.
func spanCost() float64 {
	r := newRecorder()
	t0 := now()
	for i := 0; i < spanProbes; i++ {
		r.end(r.begin("probe", 0, i))
	}
	return float64(now().Sub(t0).Nanoseconds()) / 1e3 / spanProbes
}

// traceSimulate replays simulate requests through the engine's three
// models and the live-out verification, each timed on its own.
func traceSimulate(ctx context.Context, rec *recorder, t *tally, seed int64, perProcs int, out map[string]metric) error {
	reqs, err := simRequests(seed, perProcs)
	if err != nil {
		return err
	}
	loops := workloads.NamedLoops()
	progs := make([]*ir.Program, len(loops))
	labs := make([]map[*ir.Region]*idem.Result, len(loops))
	for l, spec := range loops {
		progs[l] = spec.Program()
		labs[l] = idem.LabelProgram(progs[l])
	}
	var dyn, overflows, stall, caseCycles, seqCycles int64
	for k, r := range reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := 1_000_000 + k
		p, lab := progs[r.loop], labs[r.loop]
		c := engine.DefaultConfig()
		c.Processors, c.SpecCapacity = r.req.Procs, r.req.Capacity
		var seq, hose, cas *engine.Result
		var e1, e2, e3, e4 error
		root := rec.begin("simulate", 0, id)
		rec.timed("engine.seq", root, id, func() { seq, e1 = engine.RunSequential(p, c) })
		rec.timed("engine.hose", root, id, func() { hose, e2 = engine.RunSpeculative(p, lab, c, engine.HOSE) })
		rec.timed("engine.case", root, id, func() { cas, e3 = engine.RunSpeculative(p, lab, c, engine.CASE) })
		if e1 == nil && e2 == nil && e3 == nil {
			rec.timed("engine.verify", root, id, func() {
				e4 = engine.LiveOutMismatch(p, lab, seq, hose)
				if e4 == nil {
					e4 = engine.LiveOutMismatch(p, lab, seq, cas)
				}
			})
		}
		rec.end(root)
		t.attempted++
		for _, err := range []error{e1, e2, e3, e4} {
			if err != nil {
				return fmt.Errorf("loop %s procs %d capacity %d: %w", loops[r.loop], c.Processors, c.SpecCapacity, err)
			}
		}
		dyn += seq.Stats.DynRefs + hose.Stats.DynRefs + cas.Stats.DynRefs
		overflows += cas.Stats.Overflows
		stall += cas.Stats.OverflowStallCycles
		caseCycles += cas.Cycles
		seqCycles += seq.Cycles
	}
	total, _, _ := rec.totals()
	n := len(reqs)
	engineNs := (total["engine.seq"] + total["engine.hose"] + total["engine.case"]).Nanoseconds()
	out["engine.seq_us"] = metric{mean(total, "engine.seq", n), "us"}
	out["engine.hose_us"] = metric{mean(total, "engine.hose", n), "us"}
	out["engine.case_us"] = metric{mean(total, "engine.case", n), "us"}
	out["engine.verify_us"] = metric{mean(total, "engine.verify", n), "us"}
	out["engine.ns_per_dyn_ref"] = metric{float64(engineNs) / float64(dyn), "ns"}
	out["engine.case_overflows"] = metric{float64(overflows) / float64(n), "count"}
	out["engine.case_stall_cycle_pct"] = metric{100 * float64(stall) / float64(caseCycles), "%"}
	out["engine.case_speedup"] = metric{float64(seqCycles) / float64(caseCycles), "x"}
	return nil
}

// parseMetricz reads the "name value" lines of a /metricz document.
func parseMetricz(doc string) map[string]int64 {
	m := map[string]int64{}
	for _, line := range strings.Split(doc, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// storeKey addresses a label response the way the service does
// (fingerprint, op, canonical parameters, analysis version).
func storeKey(fpHex string) (store.Key, error) {
	var k store.Key
	b, err := hex.DecodeString(fpHex)
	if err != nil || len(b) != len(k.Fingerprint) {
		return k, fmt.Errorf("bad fingerprint %q", fpHex)
	}
	copy(k.Fingerprint[:], b)
	k.Op, k.Params, k.Version = api.OpLabel, "deps=false;procs=0;cap=0", service.AnalysisVersion
	return k, nil
}

// traceEdit replays edit-batch in process: the store's warm-start scan,
// reads and writes; each round's /v1/batch through the service handler;
// the batch handler's own time against its items' Do calls; and HTTP
// overhead against Do for warm requests.
func traceEdit(ctx context.Context, rec *recorder, t *tally, o options, epochs int, out map[string]metric) error {
	plan, err := editRequests(o.seed, epochs)
	if err != nil {
		return err
	}
	// The first generation goes into a store through the service.
	dir := filepath.Join(o.work, "ledger-store")
	for _, d := range []string{dir, filepath.Join(o.work, "ledger-puts")} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	fs, _, err := store.Open(dir)
	if err != nil {
		return err
	}
	c := service.DefaultConfig()
	c.Store = fs
	srv := service.New(c)
	_, errs := srv.Batch(ctx, gen0Items(plan))
	srv.Close()
	fs.Close()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("filling the store: %w", err)
		}
	}

	// Warm start: the recovery scan, then the scan the service runs.
	var keys []store.Key
	id := 2_000_000
	root := rec.begin("store.warm_start", 0, id)
	rec.timed("store.open", root, id, func() { fs, _, err = store.Open(dir) })
	if err != nil {
		return err
	}
	defer fs.Close()
	var serr error
	rec.timed("store.scan", root, id, func() {
		serr = fs.Scan(func(k store.Key, _ []byte) error {
			keys = append(keys, k)
			return nil
		})
	})
	rec.end(root)
	if serr != nil {
		return serr
	}
	// Edit responses are written to a store of their own, so the writes
	// do not race the service's write-behind persistence.
	putFS, _, err := store.Open(filepath.Join(o.work, "ledger-puts"))
	if err != nil {
		return err
	}
	defer putFS.Close()
	for i, k := range keys {
		var gerr error
		rec.timed("store.get", 0, id+1+i, func() { _, gerr = fs.Get(k) })
		if gerr != nil {
			return gerr
		}
	}

	c.Store = fs
	srv = service.New(c)
	defer srv.Close()
	h := srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	cl := conn()
	defer cl.CloseIdleConnections()

	serve := func(path string, body []byte) ([]byte, error) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		return w.Body.Bytes(), nil
	}
	counters := func() map[string]int64 { return parseMetricz(srv.RenderMetricz()) }
	var reqs, hits, computed, reused, relabeled int64
	items := gen0Items(plan)
	var batchWarm, doWarm, overHTTP, overDo time.Duration
	var warmBatches, warmReqs int
	for r := 0; r <= len(plan.rounds); r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := 3_000_000 + r
		edited := map[int]edit{}
		if r > 0 {
			for _, e := range plan.rounds[r-1] {
				items[e.prog] = e.delta()
				edited[e.prog] = e
			}
		}
		before := counters()
		var body []byte
		var berr error
		rec.timed("http.batch", 0, id, func() { body, berr = serve("/v1/batch", encode(api.BatchRequest{Requests: items})) })
		if berr != nil {
			return berr
		}
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Responses) != len(items) {
			return fmt.Errorf("round %d: batch reply: %v", r, err)
		}
		t.attempted++
		for i, item := range br.Responses {
			e, isEdit := edited[i]
			if _, isErr := errorDoc(item); isErr && isEdit {
				full := api.Request{Op: api.OpLabel, Program: e.composed}
				if item, err = serve("/v1/label", encode(full)); err != nil {
					return err
				}
				items[i] = full
			} else if isErr {
				return fmt.Errorf("round %d item %d: %s", r, i, item)
			}
			if isEdit {
				if fp := fingerprint(item); fp != e.fp {
					t.fail("round %d item %d: fingerprint %q, want %q", r, i, fp, e.fp)
				}
				// The edit's response as a store write.
				k, err := storeKey(e.fp)
				if err != nil {
					return err
				}
				var perr error
				rec.timed("store.put", 0, id, func() { perr = putFS.Put(k, item) })
				if perr != nil {
					return perr
				}
			}
		}
		after := counters()
		reqs += after["requests_label"] - before["requests_label"]
		hits += after["response_cache_hits"] - before["response_cache_hits"]
		computed += after["tasks_computed"] - before["tasks_computed"]
		reused += after["delta_regions_reused"] - before["delta_regions_reused"]
		relabeled += after["delta_regions_relabeled"] - before["delta_regions_relabeled"]

		// Every item is now answered from the response cache: the batch
		// handler against its items' Do calls, and HTTP against Do.
		warm := encode(api.BatchRequest{Requests: items})
		t0 := now()
		if _, err := serve("/v1/batch", warm); err != nil {
			return err
		}
		batchWarm += now().Sub(t0)
		t0 = now()
		for _, it := range items {
			if _, err := srv.Do(ctx, it); err != nil {
				return err
			}
		}
		doWarm += now().Sub(t0)
		warmBatches++
		for k := 0; k < 8; k++ {
			it := items[(r*8+k)%len(items)]
			t0 := now()
			status, resp, err := post(cl, url+"/v1/label", encode(it))
			overHTTP += now().Sub(t0)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm label over HTTP: status %d: %v %s", status, err, resp)
			}
			t0 = now()
			if _, err := srv.Do(ctx, it); err != nil {
				return err
			}
			overDo += now().Sub(t0)
			warmReqs++
		}
	}
	total, _, count := rec.totals()
	out["store.scan_ms"] = metric{float64((total["store.open"] + total["store.scan"]).Nanoseconds()) / 1e6, "ms"}
	out["store.records"] = metric{float64(len(keys)), "count"}
	out["store.get_us"] = metric{mean(total, "store.get", count["store.get"]), "us"}
	out["store.put_us"] = metric{mean(total, "store.put", count["store.put"]), "us"}
	out["service.resp_hit_pct"] = metric{100 * float64(hits) / float64(reqs), "%"}
	out["service.computed_per_req"] = metric{float64(computed) / float64(reqs), "count"}
	out["service.delta_reuse_pct"] = metric{100 * float64(reused) / float64(reused+relabeled), "%"}
	out["http.batch_us"] = metric{mean(total, "http.batch", count["http.batch"]), "us"}
	out["http.batch_self_us"] = metric{float64((batchWarm - doWarm).Nanoseconds()) / 1e3 / float64(warmBatches), "us"}
	out["http.overhead_us"] = metric{float64((overHTTP - overDo).Nanoseconds()) / 1e3 / float64(warmReqs), "us"}
	return nil
}

// routeProbes is how many warm label requests price the router hop.
const routeProbes = 200

// traceRoute prices the cluster router's hop: one in-process replica on
// a loopback port, warm label requests sent through Router.Handler and
// straight to the replica.
func traceRoute(ctx context.Context, seed int64, out map[string]metric) error {
	srcs, _, err := corpus(16)
	if err != nil {
		return err
	}
	srv := service.New(service.DefaultConfig())
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	rt, err := cluster.New(cluster.Config{Replicas: []cluster.Replica{{Name: "replica-0", URL: url}}, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer rt.Close()
	rh := rt.Handler()
	cl := conn()
	defer cl.CloseIdleConnections()
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		bodies[i] = encode(api.Request{Program: src})
		if _, err := srv.Label(ctx, api.Request{Program: src}); err != nil {
			return err
		}
	}
	pick := newRNG(seed, "route")
	var routed, direct time.Duration
	for k := 0; k < routeProbes; k++ {
		body := bodies[pick.intn(len(bodies))]
		t0 := now()
		w := httptest.NewRecorder()
		rh.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/label", bytes.NewReader(body)))
		routed += now().Sub(t0)
		if w.Code != http.StatusOK {
			return fmt.Errorf("routed label: status %d: %s", w.Code, strings.TrimSpace(w.Body.String()))
		}
		t0 = now()
		status, resp, err := post(cl, url+"/v1/label", body)
		direct += now().Sub(t0)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("direct label: status %d: %v %s", status, err, resp)
		}
	}
	out["cluster.route_us"] = metric{float64((routed - direct).Nanoseconds()) / 1e3 / routeProbes, "us"}
	return nil
}
