package main

import (
	"fmt"
	"time"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/trace"
)

// lfoSpec is one LFO cache workload: a generated trace replayed through
// a cache built with core defaults (full-solve OPT, synchronous
// retraining, Workers 0) apart from size, window and eviction mode.
type lfoSpec struct {
	name      string
	mix       func(requests int, seed int64) gen.Config
	traces    int // traces per run, one per sub-seed
	requests  int // requests per trace
	window    int
	cacheSize int64
	eviction  string
}

var (
	lfoCDN = lfoSpec{name: "lfo-cdn", mix: gen.CDNMix, traces: 8, requests: 20000, window: 5000, cacheSize: 16 << 20}
	lfoWeb = lfoSpec{name: "lfo-web", mix: gen.WebMix, traces: 8, requests: 20000, window: 5000, cacheSize: 8 << 20, eviction: "learned"}
)

// lfoReplay is one replay of the trace through a fresh cache.
type lfoReplay struct {
	wall     time.Duration
	lat      []int64   // ns per Request call that crossed no window boundary
	retrains []float64 // s per boundary Request call
	windows  int
	stats    []core.RetrainStats
	reg      *obs.Registry

	// Hit counts over the requests after the first window.
	hits, hitBytes, reqs, reqBytes int64

	// Allocation counts over window interiors with a deployed model.
	allocs, allocBytes, interiorReqs uint64
	gcCycles                         uint32
	gcPauseNS                        uint64

	// Traced replays only: summed self time of core.request (request
	// minus its extract, predict and update spans) and its sample count.
	selfNS, selfN int64
}

// replayLFO replays tr through a new cache. With rec non-nil it also
// issues the request path's layer calls — Tracker.Features, Model.Predict
// on the model the cache has deployed, Tracker.Update — on a shadow
// tracker fed the same requests, and records a span around each call.
func replayLFO(spec lfoSpec, tr *trace.Trace, rec *recorder, reqBase int64) (*lfoReplay, error) {
	rp := &lfoReplay{reg: obs.NewRegistry(), lat: make([]int64, 0, len(tr.Requests))}
	c, err := core.New(core.Config{
		CacheSize:  spec.cacheSize,
		WindowSize: spec.window,
		Eviction:   spec.eviction,
		Obs:        rp.reg,
		OnRetrain:  func(s core.RetrainStats) { rp.stats = append(rp.stats, s) },
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	var shadow *features.Tracker
	row := make([]float64, features.Dim)
	if rec != nil {
		shadow = features.NewTracker(0) // core's default MaxTrackedObjects
	}
	// The shadow cannot read the cache's free bytes; a fixed half-full
	// value keeps the row in range.
	shadowFree := spec.cacheSize / 2

	m0 := readMem()
	edge := m0
	start := time.Now()
	for i, r := range tr.Requests {
		boundary := (i+1)%spec.window == 0
		if boundary && i+1 > spec.window {
			// Close the interior of a window served by a deployed model.
			e := readMem()
			rp.allocs += e.mallocs - edge.mallocs
			rp.allocBytes += e.bytes - edge.bytes
			rp.interiorReqs += uint64(spec.window - 1)
		}
		model := c.Model()
		t0 := time.Now()
		hit := c.Request(r)
		t1 := time.Now()
		if boundary {
			rp.retrains = append(rp.retrains, t1.Sub(t0).Seconds())
			edge = readMem()
		} else {
			rp.lat = append(rp.lat, t1.Sub(t0).Nanoseconds())
		}
		if i >= spec.window {
			rp.reqs++
			rp.reqBytes += r.Size
			if hit {
				rp.hits++
				rp.hitBytes += r.Size
			}
		}
		if rec != nil {
			req := reqBase + int64(i)
			parent := rec.add(req, -1, spanRequest, t0, t1)
			a := time.Now()
			shadow.Features(r, shadowFree, row)
			b := time.Now()
			rec.add(req, parent, spanExtract, a, b)
			covered := b.Sub(a)
			if model != nil {
				a = time.Now()
				sink += model.Predict(row)
				b = time.Now()
				rec.add(req, parent, spanPredict, a, b)
				covered += b.Sub(a)
			}
			a = time.Now()
			shadow.Update(r)
			b = time.Now()
			rec.add(req, parent, spanUpdate, a, b)
			covered += b.Sub(a)
			if !boundary {
				rp.selfNS += (t1.Sub(t0) - covered).Nanoseconds()
				rp.selfN++
			}
		}
	}
	rp.wall = time.Since(start)
	end := readMem()
	rp.gcCycles = end.numGC - m0.numGC
	rp.gcPauseNS = end.pauseNS - m0.pauseNS
	rp.windows = c.Windows()
	return rp, nil
}

// sink keeps traced predictions observable so the calls are not elided.
var sink float64

// runLFO measures one LFO workload. A run replays a fixed set of traces,
// one per sub-seed of --seed, so that no single draw of the object
// catalogue decides the figures. Without tracing it repeats whole
// cycles over the set while they fit the budget (at least one); with
// tracing it makes one untraced and one traced cycle.
func runLFO(spec lfoSpec, o options) (*result, error) {
	traces := make([]*trace.Trace, spec.traces)
	setup, err := timeSetups(spec.traces, func(j int) error {
		t, err := gen.Generate(spec.mix(spec.requests, subSeed(o.seed, j)))
		traces[j] = t
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: generate trace: %w", spec.name, err)
	}

	var rec *recorder
	if o.traced {
		rec = newRecorder(spanCap)
	}
	cycle := func(r *recorder) ([]*lfoReplay, time.Duration, error) {
		t0 := time.Now()
		out := make([]*lfoReplay, len(traces))
		for j, tr := range traces {
			rp, err := replayLFO(spec, tr, r, int64(j*spec.requests))
			if err != nil {
				return nil, 0, err
			}
			out[j] = rp
		}
		return out, time.Since(t0), nil
	}
	var plain [][]*lfoReplay
	var traced []*lfoReplay
	start := time.Now()
	for {
		c, d, err := cycle(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, c)
		if o.traced || time.Since(start)+d > o.budget {
			break
		}
	}
	if o.traced {
		c, _, err := cycle(rec)
		if err != nil {
			return nil, err
		}
		traced = c
	}

	res := newResult(spec.name)
	cycles := plain
	if traced != nil {
		cycles = append(cycles, traced)
	}
	checkLFO(res, spec, cycles)

	var lat []int64
	var retrains []float64
	var wall time.Duration
	var nreq int64
	for _, c := range plain {
		for _, rp := range c {
			lat = append(lat, rp.lat...)
			retrains = append(retrains, rp.retrains...)
			wall += rp.wall
			nreq += int64(spec.requests)
		}
	}
	res.attempted = int64(len(cycles) * spec.traces * spec.requests)
	res.e2e["setup_s"] = setup
	res.e2e["throughput_per_s"] = float64(nreq) / wall.Seconds()
	res.e2e["latency_p50_us"] = quantile(lat, 0.50) / 1e3
	res.e2e["latency_p95_us"] = quantile(lat, 0.95) / 1e3
	res.layer["bench.latency_p99_us"] = quantile(lat, 0.99) / 1e3
	res.e2e["retrain_p50_s"] = quantile(retrains, 0.50)
	res.samples["latency"] = len(lat)
	res.samples["retrain"] = len(retrains)
	var hits, hitBytes, reqs, reqBytes int64
	for _, rp := range plain[0] {
		hits += rp.hits
		hitBytes += rp.hitBytes
		reqs += rp.reqs
		reqBytes += rp.reqBytes
		res.record += fmt.Sprintf("%d %d %d %d\n", rp.hits, rp.hitBytes, rp.reqs, rp.reqBytes)
	}
	res.layer["cache.bhr"] = float64(hitBytes) / float64(reqBytes)
	res.layer["cache.ohr"] = float64(hits) / float64(reqs)
	if !o.traced {
		return res, nil
	}
	res.spans = rec
	lfoLayers(res, plain[0], traced, rec)
	return res, nil
}

// checkLFO fails the run unless every replay retrained exactly once per
// completed window and every replay of a trace hit identically
// (synchronous training makes a replay deterministic).
func checkLFO(res *result, spec lfoSpec, cycles [][]*lfoReplay) {
	want := spec.requests / spec.window
	for ci, c := range cycles {
		for j, rp := range c {
			if rp.windows != want || len(rp.retrains) != want || len(rp.stats) != want {
				res.fail("cycle %d trace %d: %d windows, %d boundary calls, %d retrain stats; want %d each",
					ci, j, rp.windows, len(rp.retrains), len(rp.stats), want)
			}
			if first := cycles[0][j]; rp.hits != first.hits || rp.hitBytes != first.hitBytes {
				res.fail("cycle %d trace %d: %d hits / %d hit bytes, cycle 0 had %d / %d", ci, j, rp.hits, rp.hitBytes, first.hits, first.hitBytes)
			}
			if rp.hits == 0 {
				res.fail("trace %d: no hits after the first window", j)
			}
		}
	}
}

// lfoLayers fills the per-layer metrics of a traced LFO run: stage times
// from the cache's obs histograms, label and accuracy figures from
// RetrainStats, allocation and GC counts from untraced replays, and layer
// call times from the traced replays' spans.
func lfoLayers(res *result, plain, traced []*lfoReplay, rec *recorder) {
	all := append(append([]*lfoReplay(nil), plain...), traced...)
	var stats []core.RetrainStats
	var hists = map[string][2]int64{}
	var hits, retrains float64
	for _, rp := range all {
		stats = append(stats, rp.stats...)
		for _, name := range []string{"core_retrain_opt_ns", "core_retrain_train_ns", "core_retrain_rescore_ns", "core_retrain_evict_train_ns", "evict_rank_ns"} {
			h := rp.reg.Histogram(name, obs.LatencyBounds)
			v := hists[name]
			hists[name] = [2]int64{v[0] + h.Sum(), v[1] + h.Count()}
		}
		hits += float64(rp.reg.Counter("core_hits_total").Value())
		retrains += float64(rp.reg.Counter("core_retrains_total").Value())
	}
	mean := func(name string) float64 {
		v := hists[name]
		if v[1] == 0 {
			return 0
		}
		return float64(v[0]) / float64(v[1])
	}
	n := float64(len(all))
	var seg, flow, greedy, dropped, admit, rows, acc float64
	for _, s := range stats {
		seg += float64(s.OPTSegments)
		flow += float64(s.OPTFlowIntervals)
		greedy += float64(s.OPTGreedyIntervals)
		dropped += float64(s.OPTDroppedIntervals)
		admit += s.PositiveRate
		rows += float64(s.Samples)
		acc += s.TrainAccuracy
	}
	ns := float64(max(len(stats), 1))
	l := res.layer
	l["opt.compute_s"] = mean("core_retrain_opt_ns") / 1e9
	l["opt.segments"] = seg / ns
	l["opt.flow_intervals"] = flow / ns
	l["opt.greedy_intervals"] = greedy / ns
	l["opt.dropped_intervals"] = dropped / ns
	l["opt.admit_share"] = admit / ns
	l["gbdt.train_s"] = mean("core_retrain_train_ns") / 1e9
	l["gbdt.train_rows"] = rows / ns
	l["gbdt.train_accuracy"] = acc / ns
	l["gbdt.predict_ns"] = rec.meanNS(spanPredict)
	l["features.extract_ns"] = rec.meanNS(spanExtract)
	l["features.update_ns"] = rec.meanNS(spanUpdate)
	l["core.rescore_ms"] = mean("core_retrain_rescore_ns") / 1e6
	l["core.hits"] = hits / n
	l["core.retrains"] = retrains / n
	l["evict.pick_us"] = mean("evict_rank_ns") / 1e3
	l["evict.picks"] = float64(hists["evict_rank_ns"][1]) / n
	l["evict.train_s"] = mean("core_retrain_evict_train_ns") / 1e9

	var reqNS, selfNS, selfN int64
	for _, rp := range traced {
		selfNS += rp.selfNS
		selfN += rp.selfN
		for _, d := range rp.lat {
			reqNS += d
		}
	}
	if selfN > 0 {
		l["core.request_ns"] = float64(reqNS) / float64(selfN)
		l["core.self_ns"] = float64(selfNS) / float64(selfN)
		l["core.unattributed_share"] = float64(selfNS) / float64(reqNS)
	}

	var allocs, bytes, interior uint64
	var gc uint32
	var pause uint64
	var plainWall, tracedWall time.Duration
	for _, rp := range plain {
		allocs += rp.allocs
		bytes += rp.allocBytes
		interior += rp.interiorReqs
		gc += rp.gcCycles
		pause += rp.gcPauseNS
		plainWall += rp.wall
	}
	for _, rp := range traced {
		tracedWall += rp.wall
	}
	if interior > 0 {
		l["core.allocs_per_request"] = float64(allocs) / float64(interior)
		l["core.bytes_per_request"] = float64(bytes) / float64(interior)
	}
	l["runtime.gc_cycles"] = float64(gc) / float64(len(plain))
	l["runtime.gc_pause_ms"] = float64(pause) / float64(len(plain)) / 1e6
	l["bench.trace_overhead"] = (tracedWall.Seconds()/float64(len(traced)))/(plainWall.Seconds()/float64(len(plain))) - 1
}
