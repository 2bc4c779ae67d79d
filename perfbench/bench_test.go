package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"lfo/internal/gen"
)

// Tiny versions of the workloads: same code paths, a fraction of a
// second each.
var (
	tinyCDN   = lfoSpec{name: "lfo-cdn", mix: gen.CDNMix, traces: 2, requests: 1200, window: 400, cacheSize: 4 << 20}
	tinyWeb   = lfoSpec{name: "lfo-web", mix: gen.WebMix, traces: 2, requests: 1200, window: 400, cacheSize: 1 << 20, eviction: "learned"}
	tinyFleet = fleetSpec{name: "fleet-admit", traces: 2, train: 600, stream: 1500, cacheSize: 4 << 20, batch: 16, maxInFlight: 2}
)

func tinyRun(t *testing.T, spec any, traced bool) *result {
	t.Helper()
	o := options{seed: 7, budget: time.Millisecond, traced: traced}
	var res *result
	var err error
	switch s := spec.(type) {
	case lfoSpec:
		res, err = runLFO(s, o)
	case fleetSpec:
		res, err = runFleet(s, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryMetricEmitted checks that each workload reports every metric
// of its trace mode, by name and with its unit, that end-to-end values
// are positive, and that the tiny runs pass their output checks.
func TestEveryMetricEmitted(t *testing.T) {
	for _, spec := range []any{tinyCDN, tinyWeb, tinyFleet} {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, spec, traced)
			out := finish(res, traced)
			if !out.Correct {
				t.Fatalf("%s trace=%v: checks failed: %v", res.workload, traced, res.failures)
			}
			if out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s: attempted %d failed %d", res.workload, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", res.workload, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", res.workload, traced, d.name, m, d.unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", res.workload, d.name, m.Value)
				}
			}
			var buf strings.Builder
			report(&buf, newStamp(res.workload, 7, 1, traced), res, traced)
			for _, d := range defs {
				if !strings.Contains(buf.String(), d.name) {
					t.Errorf("%s: readable report lacks %s", res.workload, d.name)
				}
			}
		}
	}
}

// TestLayersAttributed checks the traced LFO run: the layer spans cover
// part of core.request_ns and leave a reported unattributed share, and
// learned eviction shows only where it runs.
func TestLayersAttributed(t *testing.T) {
	for _, spec := range []lfoSpec{tinyCDN, tinyWeb} {
		l := tinyRun(t, spec, true).layer
		req, self, share := l["core.request_ns"], l["core.self_ns"], l["core.unattributed_share"]
		if !(req > 0 && self > 0 && self < req && share > 0 && share < 1) {
			t.Errorf("%s: request %v ns, self %v ns, unattributed share %v", spec.name, req, self, share)
		}
		for _, name := range []string{"features.extract_ns", "features.update_ns", "gbdt.predict_ns", "opt.compute_s", "gbdt.train_s"} {
			if !(l[name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", spec.name, name, l[name])
			}
		}
		picks := l["evict.picks"]
		if (spec.eviction == "learned") != (picks > 0) {
			t.Errorf("%s: evict.picks = %v with eviction %q", spec.name, picks, spec.eviction)
		}
		if want := float64(spec.requests / spec.window); l["core.retrains"] != want {
			t.Errorf("%s: core.retrains = %v, want %v", spec.name, l["core.retrains"], want)
		}
	}
}

// TestComparatorCatchesPerturbedModel checks that the fleet's output
// check fails when the reference comes from a model that differs from
// the served one by one ulp-scale nudge of its base score.
func TestComparatorCatchesPerturbedModel(t *testing.T) {
	s, err := setupFleet(tinyFleet, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.Close()
	want := referenceProbs(s.model, s.rows, tinyFleet.batch, nil, 0)
	out := make([]float64, len(s.rows))
	p, err := runPass(tinyFleet, s, out, want, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.mismatches != 0 || p.fallbacks != 0 {
		t.Fatalf("served model: %d mismatches, %d fallbacks", p.mismatches, p.fallbacks)
	}
	perturbed := *s.model
	perturbed.BaseScore += 1e-12
	if err := perturbed.Compile(); err != nil {
		t.Fatal(err)
	}
	bad := referenceProbs(&perturbed, s.rows, tinyFleet.batch, nil, 0)
	if n, first := compareProbs(out, bad); n == 0 || first < 0 {
		t.Fatalf("perturbed reference: %d mismatches, first %d; want the check to fail", n, first)
	}
}

// TestRecordAcrossRuns checks the cross-run determinism record: a
// matching outcome passes, a different one fails.
func TestRecordAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	st := stamp{Binary: "b", Workload: "lfo-cdn", Seed: 1}
	for _, tc := range []struct {
		record string
		fail   bool
	}{{"1 2 3 4\n", false}, {"1 2 3 4\n", false}, {"1 2 3 5\n", true}} {
		msg, err := checkRecord(dir, st, tc.record)
		if err != nil {
			t.Fatal(err)
		}
		if (msg != "") != tc.fail {
			t.Errorf("record %q: message %q, want failure %v", tc.record, msg, tc.fail)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if _, ok := workloads[w.name]; !ok {
			t.Errorf("workload %s is not runnable", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
