package main

// Request generation. Every request list is a pure function of the
// workload and the seed: nothing here reads a clock, the environment or
// a shared generator. The benchmark's tests pin that two generations with
// one seed are byte-identical.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"refidem/internal/api"
	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/workloads"
)

// Sizes of one pass. Each pass sends its whole list to a fresh daemon, so
// every pass of a run measures the same requests.
const (
	// labelPerProfile programs of each of the 15 generator profiles make
	// up label-cold's corpus (1500 programs).
	labelPerProfile = 100
	// simPerProcs capacities are drawn for each (loop, procs) pair:
	// 11 loops x 8 processor counts x 10 = 880 simulate requests.
	simPerProcs = 10
	simMaxProcs = 8
	simMinCap   = 2
	simMaxCap   = 255
	// projectSize programs make up edit-batch's project; editsPerRound of
	// them change per round and an epoch edits each exactly once. 13
	// epochs make 209 rounds with the first generation, so each pass's
	// p95 has ten rounds beyond it.
	projectSize   = 64
	editsPerRound = 4
	editEpochs    = 13
)

// rng is SplitMix64: a small seeded generator whose sequence this file
// pins, so request lists never depend on a library's generator.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, label) pair.
func newRNG(seed int64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{s: uint64(seed) ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1 (Fisher-Yates).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// request is one prepared HTTP request: the endpoint, the encoded body,
// and what the client needs to check the reply.
type request struct {
	path string
	body []byte
	req  api.Request
	// fp is the hex fingerprint of the program the request names,
	// computed by the client from its own parse.
	fp string
	// loop indexes workloads.NamedLoops() for simulate requests.
	loop int
}

func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // api.Request always marshals
	}
	return b
}

func fingerprintHex(src string) (string, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	fp := ir.FingerprintOf(p)
	return hex.EncodeToString(fp[:]), nil
}

// corpus returns the first n programs of the fixed corpus with their
// fingerprints. Program j comes from profile j mod 15: the profile's next
// generator seed whose program differs from every earlier one, so all
// programs are distinct and a shorter corpus is a prefix of a longer one.
func corpus(n int) (srcs, fps []string, err error) {
	profiles := gen.Profiles()
	next := make([]int64, len(profiles))
	seen := map[string]bool{}
	for j := 0; j < n; j++ {
		p := j % len(profiles)
		for {
			src := gen.FromProfile(profiles[p], next[p]).Program.Format()
			next[p]++
			fp, err := fingerprintHex(src)
			if err != nil {
				return nil, nil, fmt.Errorf("profile %s seed %d: %w", profiles[p].Name, next[p]-1, err)
			}
			if !seen[fp] {
				seen[fp] = true
				srcs = append(srcs, src)
				fps = append(fps, fp)
				break
			}
		}
	}
	return srcs, fps, nil
}

// labelRequests builds label-cold's list. The corpus is the same for every
// seed (label cost has a heavy tail, so a seed-drawn corpus would move
// throughput from seed to seed); the seed fixes the order within each
// profile and which quarter of each profile's programs ask for deps.
// Requests rotate round-robin over the 15 profiles.
func labelRequests(seed int64, perProfile int) ([]request, error) {
	nprof := len(gen.Profiles())
	srcs, fps, err := corpus(nprof * perProfile)
	if err != nil {
		return nil, err
	}
	order := make([][]int, nprof)
	deps := make([][]bool, nprof)
	for p := range order {
		r := newRNG(seed, fmt.Sprintf("label/%d", p))
		order[p] = r.perm(perProfile)
		deps[p] = make([]bool, perProfile)
		for _, k := range r.perm(perProfile)[:perProfile/4] {
			deps[p][k] = true
		}
	}
	out := make([]request, 0, len(srcs))
	for k := 0; k < perProfile; k++ {
		for p := 0; p < nprof; p++ {
			j := order[p][k]*nprof + p
			req := api.Request{Program: srcs[j], Deps: deps[p][k]}
			out = append(out, request{path: "/v1/label", body: encode(req), req: req, fp: fps[j]})
		}
	}
	return out, nil
}

// simRequests builds simulate-sweep's list: every named loop at every
// processor count 1..8, each with perProcs capacities drawn from 2..255,
// one from each of perProcs equal slices of that range, so no (loop,
// procs, capacity) point repeats and every seed covers the range alike.
// Requests rotate round-robin over the loops.
func simRequests(seed int64, perProcs int) ([]request, error) {
	loops := workloads.NamedLoops()
	perLoop := make([][]request, len(loops))
	span := simMaxCap - simMinCap + 1
	for l, spec := range loops {
		fp, err := fingerprintHex(spec.Src)
		if err != nil {
			return nil, fmt.Errorf("loop %s: %w", spec, err)
		}
		for procs := 1; procs <= simMaxProcs; procs++ {
			r := newRNG(seed, fmt.Sprintf("sim/%d/%d", l, procs))
			for b := 0; b < perProcs; b++ {
				lo, hi := b*span/perProcs, (b+1)*span/perProcs
				req := api.Request{Program: spec.Src, Procs: procs, Capacity: simMinCap + lo + r.intn(hi-lo)}
				perLoop[l] = append(perLoop[l], request{path: "/v1/simulate", body: encode(req), req: req, fp: fp, loop: l})
			}
		}
		// Interleave processor counts so every stretch of the list mixes them.
		o := newRNG(seed, fmt.Sprintf("sim/order/%d", l)).perm(len(perLoop[l]))
		shuffled := make([]request, len(o))
		for i, k := range o {
			shuffled[i] = perLoop[l][k]
		}
		perLoop[l] = shuffled
	}
	var out []request
	for k := range perLoop[0] {
		for l := range loops {
			out = append(out, perLoop[l][k])
		}
	}
	return out, nil
}

// edit is one region edit of edit-batch's plan: program prog moves from
// the version with fingerprint base to the one with fingerprint fp.
type edit struct {
	prog     int
	region   string
	patch    string // the edited region's source
	base     string
	fp       string
	composed string // the full edited program
}

// delta is the edit as a delta request item.
func (e edit) delta() api.Request {
	return api.Request{Op: api.OpLabel, Base: e.base,
		Patches: []api.RegionPatch{{Region: e.region, Source: e.patch}}}
}

// editPlan is edit-batch's input: the project's first generation and the
// edits of every round.
type editPlan struct {
	gen0   []string // first-generation sources
	fp0    []string
	rounds [][]edit // editsPerRound edits per round
}

// editRequests builds edit-batch's plan. The project is the first 64
// corpus programs for every seed. Round k of an epoch edits the group
// {k, k+16, k+32, k+48}, four consecutive generator profiles, so every
// round mixes profiles the same way whatever the seed; each epoch visits
// the 16 groups in a seeded order, and the seed picks the edited region.
// Edits chain: each starts from the program's previous version.
func editRequests(seed int64, epochs int) (*editPlan, error) {
	srcs, fps, err := corpus(projectSize)
	if err != nil {
		return nil, err
	}
	plan := &editPlan{gen0: srcs, fp0: fps}
	cur := append([]string(nil), srcs...)
	curFP := append([]string(nil), fps...)
	r := newRNG(seed, "edit")
	groups := projectSize / editsPerRound
	for e := 0; e < epochs; e++ {
		for _, g := range r.perm(groups) {
			var round []edit
			for k := 0; k < editsPerRound; k++ {
				i := g + k*groups
				ed, err := editProgram(cur[i], r)
				if err != nil {
					return nil, fmt.Errorf("project program %d: %w", i, err)
				}
				ed.prog, ed.base = i, curFP[i]
				cur[i], curFP[i] = ed.composed, ed.fp
				round = append(round, ed)
			}
			plan.rounds = append(plan.rounds, round)
		}
	}
	return plan, nil
}

// editProgram changes one constant in one assignment of a seeded region:
// the first assignment's right-hand side gains "+ 1", or its trailing
// "+ c" becomes "+ c+1". The edit never touches a subscript, so the
// program stays valid, and repeated edits never revisit a version.
func editProgram(src string, r *rng) (edit, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return edit{}, err
	}
	var cands []*ir.Region
	for _, reg := range p.Regions {
		if firstAssign(reg) != nil {
			cands = append(cands, reg)
		}
	}
	if len(cands) == 0 {
		return edit{}, fmt.Errorf("no region has an assignment")
	}
	reg := cands[r.intn(len(cands))]
	a := firstAssign(reg)
	if b, ok := a.RHS.(*ir.Bin); ok && b.Op == ir.Add {
		if c, ok := b.R.(*ir.Const); ok {
			c.Val++
		} else {
			a.RHS = ir.AddE(a.RHS, ir.C(1))
		}
	} else {
		a.RHS = ir.AddE(a.RHS, ir.C(1))
	}
	composed := p.Format()
	fp, err := fingerprintHex(composed)
	if err != nil {
		return edit{}, fmt.Errorf("edited program does not parse: %w", err)
	}
	return edit{region: reg.Name, patch: reg.Format(), fp: fp, composed: composed}, nil
}

// firstAssign returns the first assignment of the region in source
// order, nil when it has none.
func firstAssign(r *ir.Region) *ir.Assign {
	for _, seg := range r.Segments {
		if a := firstAssignIn(seg.Body); a != nil {
			return a
		}
	}
	return nil
}

func firstAssignIn(stmts []ir.Stmt) *ir.Assign {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.Assign:
			return s
		case *ir.If:
			if a := firstAssignIn(s.Then); a != nil {
				return a
			}
			if a := firstAssignIn(s.Else); a != nil {
				return a
			}
		case *ir.For:
			if a := firstAssignIn(s.Body); a != nil {
				return a
			}
		}
	}
	return nil
}
