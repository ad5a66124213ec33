package main

// The end-to-end run: closed-loop passes over loopback HTTP against a
// refidemd subprocess, with every reply checked.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api"
	"refidem/internal/service"
)

// A run times at least setupSamples daemon start-ups. Each pass's own
// start-up counts, setupsPerPass bare start-ups follow every pass so the
// samples spread over the run, and more at the end make up the rest.
const (
	setupSamples  = 301
	setupsPerPass = 40
)

// passStat is one pass's measured phase.
type passStat struct {
	lats  []time.Duration // per request
	phase time.Duration
	cpu   time.Duration // daemon user+system CPU over the phase
	rss   float64       // daemon peak RSS at the end of the phase, MB
	// steal is the host's steal share over the phase: the fraction of
	// CPU time the hypervisor gave to other guests. It is only logged.
	steal float64
}

// tally accumulates one run's passes.
type tally struct {
	log       io.Writer // progress, one line per pass
	passes    []passStat
	setups    []time.Duration
	attempted int
	failed    int
	// idem and rows count idempotent references and all references:
	// RefLabel rows for label workloads, CASE idem_refs and dyn_refs for
	// simulate-sweep.
	idem, rows int64
	// passIdem records each pass's idem count; the result is
	// deterministic, so every pass must agree.
	passIdem []int64
	// retries counts full re-sends after an unknown-base answer.
	retries  int
	problems []string
}

// fail counts a failed request and notes why.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.note(format, args...)
}

// note records a failed check; the caller counts the failed request.
func (t *tally) note(format string, args ...any) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// conn is one client connection: a transport that keeps a single
// loopback connection open.
func conn() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// fingerprint returns the value of a document's first "fingerprint"
// field, "" when it has none.
func fingerprint(doc []byte) string {
	key := []byte(`"fingerprint": "`)
	i := bytes.Index(doc, key)
	if i < 0 {
		return ""
	}
	doc = doc[i+len(key):]
	j := bytes.IndexByte(doc, '"')
	if j < 0 {
		return ""
	}
	return string(doc[:j])
}

var (
	labelKey     = []byte(`"label": "`)
	labelIdemKey = []byte(`"label": "idempotent"`)
)

// countLabels counts RefLabel rows and the idempotent ones in a label
// document.
func countLabels(doc []byte) (idem, rows int64) {
	return int64(bytes.Count(doc, labelIdemKey)), int64(bytes.Count(doc, labelKey))
}

// runE2E runs the workload's passes into t.
func runE2E(ctx context.Context, o options, t *tally) error {
	switch o.workload {
	case "label-cold":
		reqs, err := labelRequests(o.seed, o.labelPerProfile)
		if err != nil {
			return err
		}
		return passes(ctx, o, t, nil, func(d *daemon) error {
			return listPass(d, reqs, 2, t, checkLabel)
		})
	case "simulate-sweep":
		reqs, err := simRequests(o.seed, o.simPerProcs)
		if err != nil {
			return err
		}
		seqCycles := map[int]int64{}
		return passes(ctx, o, t, nil, func(d *daemon) error {
			return listPass(d, reqs, 1, t, func(t *tally, r request, body []byte) {
				checkSimulate(t, r, body, seqCycles)
			})
		})
	case "edit-batch":
		plan, err := editRequests(o.seed, o.editEpochs)
		if err != nil {
			return err
		}
		prefill := filepath.Join(o.work, "store-gen0")
		if err := fillStore(ctx, o, plan, prefill); err != nil {
			return err
		}
		// Each daemon starts on a fresh copy of the filled store.
		prepare := func() ([]string, error) {
			dir := filepath.Join(o.work, "store-pass")
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			return []string{"-store", dir}, copyDir(prefill, dir)
		}
		checker := newFullLabeler()
		defer checker.close()
		return passes(ctx, o, t, prepare, func(d *daemon) error {
			return editPass(d, plan, o.seed, t, checker)
		})
	}
	return fmt.Errorf("unknown workload %q (want label-cold, simulate-sweep or edit-batch)", o.workload)
}

// passes runs pass on fresh daemons started with default flags plus the
// flags prepare returns (prepare may be nil).
func passes(ctx context.Context, o options, t *tally, prepare func() ([]string, error), pass func(*daemon) error) error {
	spawn := func() (*daemon, error) {
		var extra []string
		if prepare != nil {
			var err error
			if extra, err = prepare(); err != nil {
				return nil, err
			}
		}
		d, err := startDaemon(ctx, o.refidemd, filepath.Join(o.work, "refidemd.log"), extra...)
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, d.setup)
		return d, nil
	}
	startup := func() error {
		d, err := spawn()
		if err != nil {
			return err
		}
		if err := d.stop(); err != nil {
			return fmt.Errorf("stopping refidemd: %w", err)
		}
		return nil
	}
	deadline := now().Add(o.seconds)
	for n := 0; n == 0 || now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d, err := spawn()
		if err != nil {
			return err
		}
		err = pass(d)
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping refidemd: %w", serr)
		}
		if err != nil {
			return err
		}
		for i := 0; i < setupsPerPass; i++ {
			if err := startup(); err != nil {
				return err
			}
		}
	}
	for len(t.setups) < setupSamples {
		if err := startup(); err != nil {
			return err
		}
	}
	fmt.Fprintf(t.log, "perfbench: %d start-ups timed\n", len(t.setups))
	return nil
}

// measure brackets a measured phase with the daemon's CPU and peak RSS
// and the host's steal. phase returns the per-request latencies and the
// phase time.
func measure(d *daemon, t *tally, phase func() ([]time.Duration, time.Duration)) error {
	total0, steal0, err := hostCPU()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	lats, elapsed := phase()
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	total1, steal1, err := hostCPU()
	if err != nil {
		return err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	p := passStat{lats: lats, phase: elapsed, cpu: cpu1 - cpu0, rss: rss,
		steal: float64(steal1-steal0) / float64(max(total1-total0, 1))}
	t.passes = append(t.passes, p)
	fmt.Fprintf(t.log, "perfbench: pass %d: %d requests in %.3fs, p50 %.2fms, p95 %.2fms, daemon cpu %.3fs, peak rss %.1f MB, setup %.2fms, host steal %.1f%%\n",
		len(t.passes)-1, len(lats), elapsed.Seconds(), ms(p.quantile(0.5)), ms(p.quantile(0.95)), p.cpu.Seconds(), rss, ms(d.setup), 100*p.steal)
	return nil
}

// listPass sends every request of reqs over conns closed-loop
// connections, then checks the replies.
func listPass(d *daemon, reqs []request, conns int, t *tally, check func(*tally, request, []byte)) error {
	status := make([]int, len(reqs))
	bodies := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	lats := make([]time.Duration, len(reqs))
	err := measure(d, t, func() ([]time.Duration, time.Duration) {
		var next atomic.Int64
		var wg sync.WaitGroup
		start := now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := conn()
				defer cl.CloseIdleConnections()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					t0 := now()
					status[i], bodies[i], errs[i] = post(cl, d.url+reqs[i].path, reqs[i].body)
					lats[i] = now().Sub(t0)
				}
			}()
		}
		wg.Wait()
		return lats, now().Sub(start)
	})
	if err != nil {
		return err
	}
	before := t.idem
	for i, r := range reqs {
		t.attempted++
		switch {
		case errs[i] != nil:
			t.fail("request %d: %v", i, errs[i])
		case status[i] != http.StatusOK:
			t.fail("request %d: status %d: %s", i, status[i], bytes.TrimSpace(bodies[i]))
		default:
			check(t, r, bodies[i])
		}
	}
	t.passIdem = append(t.passIdem, t.idem-before)
	return nil
}

// checkLabel checks a label reply against the client's fingerprint of the
// program it sent and counts its reference labels.
func checkLabel(t *tally, r request, body []byte) {
	if fp := fingerprint(body); fp != r.fp {
		t.fail("label fingerprint %q, want %q", fp, r.fp)
		return
	}
	idem, rows := countLabels(body)
	t.idem += idem
	t.rows += rows
}

// checkSimulate checks a simulate reply: verified, the requested machine,
// and a Sequential cycle count equal at every point of the loop.
func checkSimulate(t *tally, r request, body []byte, seqCycles map[int]int64) {
	var doc api.SimulateResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.fail("simulate reply: %v", err)
		return
	}
	if !doc.Verified || doc.Fingerprint != r.fp || doc.Processors != r.req.Procs ||
		doc.SpecCapacity != r.req.Capacity || len(doc.Models) != 3 {
		t.fail("simulate reply for loop %d procs %d capacity %d: verified=%v fingerprint=%s procs=%d capacity=%d models=%d",
			r.loop, r.req.Procs, r.req.Capacity, doc.Verified, doc.Fingerprint, doc.Processors, doc.SpecCapacity, len(doc.Models))
		return
	}
	seq, cas := doc.Models[0], doc.Models[2]
	if seq.Mode != "sequential" || cas.Mode != "CASE" {
		t.fail("simulate reply models %q, %q, want sequential ... CASE", seq.Mode, cas.Mode)
		return
	}
	if c, ok := seqCycles[r.loop]; ok && c != seq.Cycles {
		t.fail("loop %d: sequential cycles %d at procs %d capacity %d, %d elsewhere",
			r.loop, seq.Cycles, r.req.Procs, r.req.Capacity, c)
		return
	}
	seqCycles[r.loop] = seq.Cycles
	t.idem += cas.IdemRefs
	t.rows += cas.DynRefs
}

// gen0Items is the project's first generation as batch items.
func gen0Items(plan *editPlan) []api.Request {
	items := make([]api.Request, len(plan.gen0))
	for i, src := range plan.gen0 {
		items[i] = api.Request{Op: api.OpLabel, Program: src}
	}
	return items
}

// fillStore writes the project's first generation into a fresh store
// directory through a daemon of its own; not timed.
func fillStore(ctx context.Context, o options, plan *editPlan, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := startDaemon(ctx, o.refidemd, filepath.Join(o.work, "refidemd-fill.log"), "-store", dir)
	if err != nil {
		return err
	}
	status, body, err := post(conn(), d.url+"/v1/batch", encode(api.BatchRequest{Requests: gen0Items(plan)}))
	if serr := d.stop(); err == nil && serr != nil {
		err = serr
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	return nil
}

// errorDoc reports whether a batch item is an error document, and its
// message.
func errorDoc(item []byte) (string, bool) {
	var doc struct {
		Error *string `json:"error"`
	}
	head := bytes.TrimLeft(bytes.TrimPrefix(bytes.TrimSpace(item), []byte("{")), " \t\r\n")
	if !bytes.HasPrefix(head, []byte(`"error"`)) || json.Unmarshal(item, &doc) != nil || doc.Error == nil {
		return "", false
	}
	return *doc.Error, true
}

// sampleEvery picks about one delta item in sampleEvery for the
// full-label comparison.
const sampleEvery = 48

// editPass sends the project's first generation, then one batch per
// planned round. A delta item whose base the daemon does not hold is
// recovered by re-sending the full edited program: a retry inside the
// round, not a failure. One round is one request of the workload; its
// latency is the batch's plus its re-sends'. The phase time is the wall
// time of all rounds, so it includes the client's decoding and checking
// of each reply.
func editPass(d *daemon, plan *editPlan, seed int64, t *tally, checker *fullLabeler) error {
	cl := conn()
	defer cl.CloseIdleConnections()
	items := gen0Items(plan)
	want := append([]string(nil), plan.fp0...)
	type sample struct {
		composed string
		item     []byte
	}
	var samples []sample
	pick := newRNG(seed, "edit/sample")
	before := t.idem
	var roundLat time.Duration
	send := func(path string, body []byte) (int, []byte, error) {
		t0 := now()
		status, resp, err := post(cl, d.url+path, body)
		roundLat += now().Sub(t0)
		return status, resp, err
	}
	// round sends one round and checks it; false means it failed.
	round := func(r int) bool {
		edited, sampled := map[int]edit{}, map[int]bool{}
		if r > 0 {
			for _, e := range plan.rounds[r-1] {
				items[e.prog] = e.delta()
				want[e.prog] = e.fp
				edited[e.prog] = e
				if pick.intn(sampleEvery) == 0 {
					sampled[e.prog] = true
				}
			}
		}
		status, body, err := send("/v1/batch", encode(api.BatchRequest{Requests: items}))
		if err != nil || status != http.StatusOK {
			t.note("round %d: batch status %d: %v %s", r, status, err, bytes.TrimSpace(body))
			return false
		}
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Responses) != len(items) {
			t.note("round %d: batch reply with %d items for %d requests: %v", r, len(br.Responses), len(items), err)
			return false
		}
		ok := true
		for i, item := range br.Responses {
			e, isEdit := edited[i]
			if msg, isErr := errorDoc(item); isErr {
				if !isEdit || !strings.Contains(msg, api.ErrUnknownBase.Error()) {
					t.note("round %d item %d: %s", r, i, msg)
					ok = false
					continue
				}
				full := api.Request{Op: api.OpLabel, Program: e.composed}
				status, resp, err := send("/v1/label", encode(full))
				if err != nil || status != http.StatusOK {
					t.note("round %d item %d: full re-send status %d: %v", r, i, status, err)
					ok = false
					continue
				}
				t.retries++
				item = resp
				items[i] = full
			} else if sampled[i] {
				samples = append(samples, sample{e.composed, append([]byte(nil), item...)})
			}
			if fp := fingerprint(item); fp != want[i] {
				t.note("round %d item %d: fingerprint %q, want %q", r, i, fp, want[i])
				ok = false
				continue
			}
			idem, rows := countLabels(item)
			t.idem += idem
			t.rows += rows
		}
		return ok
	}
	err := measure(d, t, func() ([]time.Duration, time.Duration) {
		var lats []time.Duration
		start := now()
		for r := 0; r <= len(plan.rounds); r++ {
			roundLat = 0
			t.attempted++
			if !round(r) {
				t.failed++
			}
			lats = append(lats, roundLat)
		}
		return lats, now().Sub(start)
	})
	if err != nil {
		return err
	}
	t.passIdem = append(t.passIdem, t.idem-before)
	for _, s := range samples {
		if err := checker.same(s.composed, s.item); err != nil {
			t.fail("delta item differs from a full label: %v", err)
		}
	}
	return nil
}

// fullLabeler answers /v1/label through a fresh in-process service that
// shares no cache or store with the daemon under test.
type fullLabeler struct {
	srv *service.Server
	h   http.Handler
}

func newFullLabeler() *fullLabeler {
	srv := service.New(service.DefaultConfig())
	return &fullLabeler{srv: srv, h: srv.Handler()}
}

func (f *fullLabeler) close() { f.srv.Close() }

// same reports whether item, a batch item, equals the full /v1/label
// reply for the program. Batch items are re-indented inside the batch
// document, so both are compacted first.
func (f *fullLabeler) same(program string, item []byte) error {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/label",
		bytes.NewReader(encode(api.Request{Program: program}))))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("full label status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, rec.Body.Bytes()); err != nil {
		return err
	}
	if err := json.Compact(&b, item); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("%d bytes vs %d bytes for fingerprint %s", b.Len(), a.Len(), fingerprint(rec.Body.Bytes()))
	}
	return nil
}

// quantile is the nearest-rank q-quantile of the pass's latencies.
func (p passStat) quantile(q float64) time.Duration {
	sorted := slices.Clone(p.lats)
	slices.Sort(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e2eMetrics turns a run's tally into the end-to-end metrics. Every timing
// and size is the median over the run's passes of that pass's figure, so
// one pass disturbed by the host does not set it.
func e2eMetrics(t *tally) map[string]metric {
	var rps, p50, p95, cpu, rss, setups []float64
	for _, p := range t.passes {
		n := float64(len(p.lats))
		rps = append(rps, n/p.phase.Seconds())
		p50 = append(p50, ms(p.quantile(0.50)))
		p95 = append(p95, ms(p.quantile(0.95)))
		cpu = append(cpu, float64(p.cpu.Nanoseconds())/1e3/n)
		rss = append(rss, p.rss)
	}
	for _, s := range t.setups {
		setups = append(setups, s.Seconds())
	}
	return map[string]metric{
		"throughput_rps":        {median(rps), "1/s"},
		"latency_p50_ms":        {median(p50), "ms"},
		"latency_p95_ms":        {median(p95), "ms"},
		"server_cpu_us_per_req": {median(cpu), "us"},
		"server_peak_rss_mb":    {median(rss), "MB"},
		"setup_s":               {median(setups), "s"},
		"ok_pct":                {100 * float64(t.attempted-t.failed) / float64(t.attempted), "%"},
		"idem_ref_pct":          {100 * float64(t.idem) / float64(t.rows), "%"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
