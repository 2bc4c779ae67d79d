package main

import (
	"fmt"
	"math"
	"time"

	"lfo/internal/core"
	"lfo/internal/features"
	"lfo/internal/fleet"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/obs"
	"lfo/internal/server"
	"lfo/internal/trace"
)

// fleetSpec is the serving workload: a model trained on the first window
// of a CDN-mix trace, served by one in-process prediction server on
// loopback, and the rest of the trace streamed through one fleet.Router.
type fleetSpec struct {
	name        string
	traces      int // traces, models and servers per run, one per sub-seed
	train       int // requests in the training window
	stream      int // rows streamed per pass
	cacheSize   int64
	batch       int
	maxInFlight int
}

var fleetAdmit = fleetSpec{
	name:        "fleet-admit",
	traces:      6,
	train:       5000,
	stream:      100000,
	cacheSize:   16 << 20,
	batch:       fleet.DefaultBatch,
	maxInFlight: fleet.DefaultMaxInFlight,
}

// serverTrackerBound is the server's default per-connection tracker
// bound (server.Server.MaxTrackedObjects == 0).
const serverTrackerBound = 1 << 22

// fleetSetup is everything the timed phase needs.
type fleetSetup struct {
	reqs     []trace.Request // streamed requests
	rows     []server.AdmitRequest
	model    *gbdt.Model
	ex       *core.Extraction
	srv      *server.Server
	addr     string
	reg      *obs.Registry // server and OPT metrics
	trainSec float64
}

// setupFleet generates the trace, derives each streamed row's free-bytes
// feature from an admit-all LRU replay, trains the model with
// core.TrainOnWindow and starts the server.
func setupFleet(spec fleetSpec, seed int64) (*fleetSetup, error) {
	tr, err := gen.Generate(gen.CDNMix(spec.train+spec.stream, seed))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	s := &fleetSetup{reqs: tr.Requests[spec.train:], reg: obs.NewRegistry()}
	ref := newLRU(spec.cacheSize)
	s.rows = make([]server.AdmitRequest, 0, spec.stream)
	for i, r := range tr.Requests {
		if i >= spec.train {
			s.rows = append(s.rows, server.AdmitRequest{Time: r.Time, ID: uint64(r.ID), Size: r.Size, Cost: r.Cost, Free: ref.free()})
		}
		ref.request(r, true)
	}
	t0 := time.Now()
	s.model, s.ex, err = core.TrainOnWindow(&trace.Trace{Requests: tr.Requests[:spec.train]}, core.Config{CacheSize: spec.cacheSize, Obs: s.reg})
	s.trainSec = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	s.srv = server.New(s.model, 1)
	s.srv.Obs = s.reg
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = addr.String()
	return s, nil
}

// fleetPass is one pass of the streamed rows over a fresh router
// connection (so the server's per-connection tracker starts empty).
type fleetPass struct {
	wall              time.Duration
	bursts            []int64 // ns per Enqueue×burst + Flush
	burstSum          int64
	serverBusyNS      int64 // server_predict_ns accrued during the pass
	serverFrames      int64
	serverRows        int64
	serverErrors      int64
	batches           int64
	fallbacks         int64
	failovers         int64
	gcCycles          uint32
	gcPauseNS         uint64
	mismatches, first int
}

// serverCounters reads the server totals a pass reports as deltas.
func serverCounters(reg *obs.Registry) (busy, frames, rows, errs int64) {
	h := reg.Histogram("server_predict_ns", obs.LatencyBounds)
	errs = reg.Counter("server_read_errors_total").Value() +
		reg.Counter("server_write_errors_total").Value() +
		reg.Counter("server_bad_requests_total").Value()
	return h.Sum(), h.Count(), reg.Counter("server_admit_rows_total").Value(), errs
}

// runPass streams every row through a new router in bursts of
// Batch×MaxInFlight rows, timing each burst, and compares the answers
// with want. With rec non-nil each Enqueue and Flush call is a span.
func runPass(spec fleetSpec, s *fleetSetup, out, want []float64, rec *recorder, rowBase int64) (*fleetPass, error) {
	rreg := obs.NewRegistry()
	r, err := fleet.NewRouter(fleet.Config{Addrs: []string{s.addr}, Batch: spec.batch, MaxInFlight: spec.maxInFlight, Obs: rreg})
	if err != nil {
		return nil, err
	}
	p := &fleetPass{bursts: make([]int64, 0, len(s.rows)/(spec.batch*spec.maxInFlight)+1)}
	b0, f0, r0, e0 := serverCounters(s.reg)
	m0 := readMem()
	burst := spec.batch * spec.maxInFlight
	start := time.Now()
	for lo := 0; lo < len(s.rows); lo += burst {
		hi := min(lo+burst, len(s.rows))
		t0 := time.Now()
		if rec == nil {
			for i := lo; i < hi; i++ {
				r.Enqueue(s.rows[i], &out[i])
			}
			r.Flush()
		} else {
			for i := lo; i < hi; i++ {
				a := time.Now()
				r.Enqueue(s.rows[i], &out[i])
				rec.add(rowBase+int64(i), -1, spanEnqueue, a, time.Now())
			}
			a := time.Now()
			r.Flush()
			rec.add(rowBase+int64(lo), -1, spanFlush, a, time.Now())
		}
		d := time.Since(t0).Nanoseconds()
		p.bursts = append(p.bursts, d)
		p.burstSum += d
	}
	p.wall = time.Since(start)
	m1 := readMem()
	_ = r.Close() // every row is answered; closing only releases the connection
	b1, f1, r1, e1 := serverCounters(s.reg)
	p.serverBusyNS, p.serverFrames, p.serverRows, p.serverErrors = b1-b0, f1-f0, r1-r0, e1-e0
	p.gcCycles, p.gcPauseNS = m1.numGC-m0.numGC, m1.pauseNS-m0.pauseNS
	p.batches = rreg.Counter("fleet_shard0_batches_total").Value()
	p.fallbacks = rreg.Counter("fleet_shard0_fallback_rows_total").Value()
	p.failovers = rreg.Counter("fleet_shard0_failovers_total").Value()
	p.mismatches, p.first = compareProbs(out, want)
	return p, nil
}

// referenceProbs recomputes the server's answers in process: one
// features.Tracker fed the rows in order, and Model.PredictMatrix over
// each batch. With rec non-nil each call is a span.
func referenceProbs(m *gbdt.Model, rows []server.AdmitRequest, batch int, rec *recorder, rowBase int64) []float64 {
	tk := features.NewTracker(serverTrackerBound)
	mat := make([]float64, batch*features.Dim)
	out := make([]float64, len(rows))
	for lo := 0; lo < len(rows); lo += batch {
		hi := min(lo+batch, len(rows))
		for i := lo; i < hi; i++ {
			ar := rows[i]
			r := trace.Request{Time: ar.Time, ID: trace.ObjectID(ar.ID), Size: ar.Size, Cost: ar.Cost}
			dst := mat[(i-lo)*features.Dim : (i-lo+1)*features.Dim]
			if rec == nil {
				tk.Features(r, ar.Free, dst)
				tk.Update(r)
				continue
			}
			a := time.Now()
			tk.Features(r, ar.Free, dst)
			b := time.Now()
			tk.Update(r)
			c := time.Now()
			rec.add(rowBase+int64(i), -1, spanExtract, a, b)
			rec.add(rowBase+int64(i), -1, spanUpdate, b, c)
		}
		a := time.Now()
		m.PredictMatrix(mat[:(hi-lo)*features.Dim], out[lo:hi], 1)
		rec.add(rowBase+int64(lo), -1, spanPredict, a, time.Now())
	}
	return out
}

// compareProbs counts answers that are not bit-identical to the
// reference and returns the first such row (-1 for none).
func compareProbs(got, want []float64) (mismatches, first int) {
	first = -1
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			if first < 0 {
				first = i
			}
			mismatches++
		}
	}
	return mismatches, first
}

// runFleet measures fleet-admit. A run sets up one trace, model and
// server per sub-seed of --seed (setup_s is the median set-up), then
// streams passes over the servers in turn. Without tracing it repeats
// whole cycles over the servers while they fit the budget (at least
// one); with tracing it makes one untraced and one traced cycle.
func runFleet(spec fleetSpec, o options) (*result, error) {
	setups := make([]*fleetSetup, 0, spec.traces)
	defer func() {
		for _, s := range setups {
			_ = s.srv.Close() // drains the handler goroutines; nothing to report
		}
	}()
	setup, err := timeSetups(spec.traces, func(j int) error {
		s, err := setupFleet(spec, subSeed(o.seed, j))
		if err == nil {
			setups = append(setups, s)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}

	// References are computed outside the timed phase; each is the same
	// for every pass because every pass opens a fresh connection.
	want := make([][]float64, len(setups))
	for j, s := range setups {
		want[j] = referenceProbs(s.model, s.rows, spec.batch, nil, 0)
	}
	var rec *recorder
	if o.traced {
		rec = newRecorder(spanCap)
	}
	out := make([]float64, spec.stream)
	cycle := func(r *recorder) ([]*fleetPass, time.Duration, error) {
		t0 := time.Now()
		ps := make([]*fleetPass, len(setups))
		for j, s := range setups {
			clear(out)
			base := int64(j * spec.stream)
			p, err := runPass(spec, s, out, want[j], r, base)
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
			}
			if r != nil {
				referenceProbs(s.model, s.rows, spec.batch, r, base)
			}
			ps[j] = p
		}
		return ps, time.Since(t0), nil
	}
	var plain, traced []*fleetPass
	start := time.Now()
	for {
		c, d, err := cycle(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, c...)
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
	all := append(append([]*fleetPass(nil), plain...), traced...)
	var bursts []int64
	for i, p := range all {
		if p.mismatches > 0 {
			res.fail("pass %d: %d of %d probabilities differ from in-process Tracker+PredictMatrix, first at row %d",
				i, p.mismatches, spec.stream, p.first)
		}
		if p.serverRows != int64(spec.stream) {
			res.fail("pass %d: server scored %d rows, streamed %d", i, p.serverRows, spec.stream)
		}
		if p.failovers > 0 {
			res.fail("pass %d: %d failovers", i, p.failovers)
		}
		res.attempted += int64(spec.stream)
		res.failed += p.fallbacks + p.serverErrors
	}
	var trainSecs []float64
	var hits, hitBytes, reqs, reqBytes int64
	for j, s := range setups {
		h, hb, n, b := admittedLRU(s.reqs, want[j], spec.cacheSize)
		if h == 0 {
			res.fail("trace %d: no hits in the admitted-LRU replay", j)
		}
		hits, hitBytes, reqs, reqBytes = hits+h, hitBytes+hb, reqs+n, reqBytes+b
		res.record += fmt.Sprintf("%d %d %d %d\n", h, hb, n, b)
		trainSecs = append(trainSecs, s.trainSec)
	}
	passSecs := make([]float64, 0, len(plain))
	for _, p := range plain {
		bursts = append(bursts, p.bursts...)
		passSecs = append(passSecs, p.wall.Seconds())
	}
	res.e2e["setup_s"] = setup
	// Every pass streams the same row count, so the median pass time
	// gives the rate a pass sustains; unlike the pooled mean it is not
	// moved by a few passes that share the machine with a burst of
	// outside load.
	res.e2e["throughput_per_s"] = float64(spec.stream) / quantile(passSecs, 0.5)
	res.e2e["latency_p50_us"] = quantile(bursts, 0.50) / 1e3
	res.e2e["latency_p95_us"] = quantile(bursts, 0.95) / 1e3
	res.layer["bench.latency_p99_us"] = quantile(bursts, 0.99) / 1e3
	res.e2e["retrain_p50_s"] = quantile(trainSecs, 0.50)
	res.samples["latency"] = len(bursts)
	res.samples["retrain"] = len(trainSecs)
	res.layer["cache.bhr"] = float64(hitBytes) / float64(reqBytes)
	res.layer["cache.ohr"] = float64(hits) / float64(reqs)
	if !o.traced {
		return res, nil
	}
	res.spans = rec
	fleetLayers(res, spec, setups, plain, traced, rec)
	return res, nil
}

// fleetLayers fills the per-layer metrics of a traced fleet-admit run:
// set-up training figures from the OPT counters and core.Evaluate, server
// time from its obs histogram, router counters, and layer call times
// from the traced cycle's spans.
func fleetLayers(res *result, spec fleetSpec, setups []*fleetSetup, plain, traced []*fleetPass, rec *recorder) {
	l := res.layer
	var seg, flow, greedy, dropped, admit, acc float64
	for _, s := range setups {
		// One OPT solve labelled each model's training window.
		seg += float64(s.reg.Counter("opt_flow_segments_total").Value() + s.reg.Counter("opt_greedy_segments_total").Value())
		flow += float64(s.reg.Counter("opt_flow_intervals_total").Value())
		greedy += float64(s.reg.Counter("opt_greedy_intervals_total").Value())
		dropped += float64(s.reg.Counter("opt_dropped_intervals_total").Value())
		ev := core.Evaluate(s.model, s.ex, 0.5)
		admit += float64(ev.Positives) / float64(ev.Positives+ev.Negatives)
		acc += 1 - ev.Error
	}
	k := float64(len(setups))
	l["opt.segments"] = seg / k
	l["opt.flow_intervals"] = flow / k
	l["opt.greedy_intervals"] = greedy / k
	l["opt.dropped_intervals"] = dropped / k
	l["opt.admit_share"] = admit / k
	l["gbdt.train_s"] = res.e2e["retrain_p50_s"]
	l["gbdt.train_rows"] = float64(spec.train)
	l["gbdt.train_accuracy"] = acc / k
	l["gbdt.predict_ns"] = float64(rec.sum[spanPredict]) / float64(len(traced)*spec.stream) // per row of the batched call
	l["features.extract_ns"] = rec.meanNS(spanExtract)
	l["features.update_ns"] = rec.meanNS(spanUpdate)
	l["fleet.enqueue_ns"] = rec.meanNS(spanEnqueue)
	l["fleet.flush_us"] = rec.meanNS(spanFlush) / 1e3

	var busy, frames, srows, serrs, burstSum, batches, fallbacks, failovers int64
	var gc uint32
	var pause uint64
	var plainWall, tracedWall time.Duration
	for _, p := range plain {
		busy += p.serverBusyNS
		frames += p.serverFrames
		srows += p.serverRows
		burstSum += p.burstSum
		gc += p.gcCycles
		pause += p.gcPauseNS
		plainWall += p.wall
	}
	for _, p := range append(append([]*fleetPass(nil), plain...), traced...) {
		serrs += p.serverErrors
		batches += p.batches
		fallbacks += p.fallbacks
		failovers += p.failovers
	}
	for _, p := range traced {
		tracedWall += p.wall
	}
	np, na := float64(len(plain)), float64(len(plain)+len(traced))
	l["server.batch_us"] = float64(busy) / float64(max(frames, 1)) / 1e3
	l["server.rows"] = float64(srows) / np
	l["server.errors"] = float64(serrs)
	l["fleet.wait_share"] = 1 - float64(busy)/float64(burstSum)
	l["fleet.batches"] = float64(batches) / na
	l["fleet.fallback_rows"] = float64(fallbacks)
	l["fleet.failovers"] = float64(failovers)
	l["runtime.gc_cycles"] = float64(gc) / np
	l["runtime.gc_pause_ms"] = float64(pause) / np / 1e6
	l["bench.trace_overhead"] = (tracedWall.Seconds()/float64(len(traced)))/(plainWall.Seconds()/np) - 1
}
