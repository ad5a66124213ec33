// Command perfbench is the repository's end-to-end benchmark. It starts a
// real refidemd, drives one of three closed-loop workloads against it over
// loopback HTTP, checks every reply, and prints the end-to-end metrics;
// with -trace 1 it instead replays the same requests in process, timing
// each layer, and prints the per-layer metrics. See README.md.
//
// Usage, from the repository root (run.sh builds both programs first):
//
//	bash perfbench/run.sh --workload label-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// now is the benchmark's one wall-clock read.
func now() time.Time {
	return time.Now() //detlint:allow time-now (the benchmark measures wall-clock time)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	refidemd string
	work     string
	// Pass sizes; the tests shrink them.
	labelPerProfile, simPerProcs, editEpochs int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{labelPerProfile: labelPerProfile, simPerProcs: simPerProcs, editEpochs: editEpochs}
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "label-cold, simulate-sweep or edit-batch")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 30, "measure whole passes until this many seconds have passed")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
	fs.StringVar(&o.refidemd, "refidemd", "", "refidemd binary")
	fs.StringVar(&o.work, "work", "", "directory for logs, stores and spans")
	spinner := fs.Bool("spin", false, "run as the keep-awake child (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spinner {
		spin()
	}
	o.seconds, o.trace = time.Duration(seconds)*time.Second, trace == 1
	if o.work == "" || (!o.trace && o.refidemd == "") {
		return errors.New("-work and, without -trace 1, -refidemd are required")
	}
	res, err := bench(ctx, o, stderr)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

// bench makes one run and returns its result; progress and failed checks
// go to log.
func bench(ctx context.Context, o options, log io.Writer) (result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	stopSpin, err := keepAwake()
	if err != nil {
		return result{}, err
	}
	defer stopSpin()
	t := &tally{log: log}
	var m map[string]metric
	if o.trace {
		m, err = runLedger(ctx, o, t)
	} else if err = runE2E(ctx, o, t); err == nil {
		for i := 1; i < len(t.passIdem); i++ {
			if t.passIdem[i] != t.passIdem[0] {
				t.fail("pass %d counted %d idempotent references, pass 0 counted %d", i, t.passIdem[i], t.passIdem[0])
			}
		}
		m = e2eMetrics(t)
	}
	if err != nil {
		return result{}, err
	}
	for _, p := range t.problems {
		fmt.Fprintln(log, "perfbench: check failed:", p)
	}
	if t.retries > 0 {
		fmt.Fprintf(log, "perfbench: %d full re-sends after unknown-base answers\n", t.retries)
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}
