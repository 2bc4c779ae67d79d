// Command perfbench is the repository benchmark. It runs one workload
// from a seed for a time budget, checks the program's outputs, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads and metric definitions are in metrics.go. Run it through
// run.sh from the repository root, which builds it from source first:
//
//	bash perfbench/run.sh --workload lfo-cdn --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	spanCap = 1 << 18 // spans kept in memory for the span file
)

type options struct {
	seed   int64
	budget time.Duration
	traced bool
}

// result is one run's measurements and check outcomes.
type result struct {
	workload          string
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int
	attempted, failed int64
	failures          []string
	record            string    // deterministic outcome compared across runs of one seed
	spans             *recorder // traced runs only
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// fail records a failed output check; the run reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	lfoCDN.name:     func(o options) (*result, error) { return runLFO(lfoCDN, o) },
	lfoWeb.name:     func(o options) (*result, error) { return runLFO(lfoWeb, o) },
	fleetAdmit.name: func(o options) (*result, error) { return runFleet(fleetAdmit, o) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish fills the metrics every workload reports alike and returns the
// result line for the chosen trace mode.
func finish(r *result, traced bool) output {
	r.e2e["peak_rss_mb"] = peakRSSMB()
	succeeded := r.attempted - r.failed
	r.layer["bench.latency_samples"] = float64(r.samples["latency"])
	r.layer["bench.retrain_samples"] = float64(r.samples["retrain"])
	r.layer["bench.attempted"] = float64(r.attempted)
	r.layer["bench.succeeded"] = float64(succeeded)
	r.layer["bench.failed"] = float64(r.failed)
	r.layer["bench.fail_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	if r.failed > 0 {
		r.fail("%d of %d operations failed", r.failed, r.attempted)
	}
	out := output{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// checkRecord compares this run's deterministic outcome with the one an
// earlier run of the same build, workload and seed stored under dir, and
// stores it if none exists. It returns a failure message on a mismatch.
func checkRecord(dir string, st stamp, record string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("outcome-%s-%s-seed%d.txt", st.Binary, st.Workload, st.Seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != record {
			return fmt.Sprintf("outcome %q differs from %q of an earlier run of this build and seed", record, prev), nil
		}
		return "", nil
	case errors.Is(err, os.ErrNotExist):
		return "", os.WriteFile(path, []byte(record), 0o644)
	default:
		return "", err
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: lfo-cdn, lfo-web or fleet-admit")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span files, run records and outcome records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	o := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1}
	st := newStamp(*workload, *seed, *seconds, o.traced)
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	res, err := runner(o)
	if err != nil {
		return err
	}
	if msg, err := checkRecord(*outDir, st, res.record); err != nil {
		return err
	} else if msg != "" {
		res.fail("%s", msg)
	}
	out := finish(res, o.traced)
	if o.traced && res.spans != nil {
		name := fmt.Sprintf("spans-%s-seed%d.csv", st.Workload, st.Seed)
		if _, err := res.spans.write(*outDir, name); err != nil {
			return err
		}
	}
	if err := writeRecord(*outDir, st, res, *traceFlag); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	var b strings.Builder
	report(&b, st, res, o.traced)
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(stdout, b.String())
	return err
}

// writeRecord stores the full result with its stamp as JSON under dir.
func writeRecord(dir string, st stamp, r *result, traceFlag int) error {
	rec := struct {
		Stamp     stamp              `json:"stamp"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
		Samples   map[string]int     `json:"samples"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Failures  []string           `json:"failures"`
	}{st, r.e2e, r.layer, r.samples, r.attempted, r.failed, r.failures}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", st.Workload, st.Seed, traceFlag)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// report prints the run in readable form before the result line.
func report(w *strings.Builder, st stamp, r *result, traced bool) {
	b, _ := json.Marshal(st) // plain struct of strings and numbers
	fmt.Fprintf(w, "# stamp %s\n", b)
	fmt.Fprintf(w, "# attempted %d  succeeded %d  failed %d  fail_ratio %g\n",
		r.attempted, r.attempted-r.failed, r.failed, r.layer["bench.fail_ratio"])
	for _, d := range endToEnd {
		n := ""
		switch d.name {
		case "latency_p50_us", "latency_p95_us":
			n = fmt.Sprintf("  (n=%d)", r.samples["latency"])
		case "retrain_p50_s":
			n = fmt.Sprintf("  (n=%d)", r.samples["retrain"])
		}
		fmt.Fprintf(w, "# %-22s %14.6g %s%s\n", d.name, r.e2e[d.name], d.unit, n)
	}
	fmt.Fprintf(w, "# %-22s %14.6g us  (n=%d, no bound)\n", "latency_p99_us", r.layer["bench.latency_p99_us"], r.samples["latency"])
	fmt.Fprintf(w, "# %-22s %14.6g ratio\n# %-22s %14.6g ratio\n", "bhr", r.layer["cache.bhr"], "ohr", r.layer["cache.ohr"])
	if traced {
		names := make([]string, 0, len(perLayer))
		for _, d := range perLayer {
			names = append(names, fmt.Sprintf("# %-26s %14.6g %s", d.name, r.layer[d.name], d.unit))
		}
		sort.Strings(names)
		for _, s := range names {
			w.WriteString(s + "\n")
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", f)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
