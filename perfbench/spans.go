package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names a span: one call from the benchmark into a layer's public
// function.
type layer uint8

const (
	spanRequest layer = iota // core: LFO.Request
	spanExtract              // features: Tracker.Features
	spanPredict              // gbdt: Model.Predict / Model.PredictMatrix (per call)
	spanUpdate               // features: Tracker.Update
	spanEnqueue              // fleet: Router.Enqueue
	spanFlush                // fleet: Router.Flush
	numLayers
)

var layerNames = [numLayers]string{"core.request", "features.extract", "gbdt.predict", "features.update", "fleet.enqueue", "fleet.flush"}

// span is one timed call. Spans of one request or row share req; parent
// is the span that caused this one (-1 for a root).
type span struct {
	req    int64
	parent int32
	layer  layer
	start  int64 // ns since the recorder's base
	dur    int64 // ns
}

// recorder keeps spans in memory up to a cap and per-layer totals for
// all of them; write puts the kept spans out once the run is over.
type recorder struct {
	base    time.Time
	spans   []span
	limit   int
	dropped int64
	sum     [numLayers]int64
	n       [numLayers]int64
}

func newRecorder(limit int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, limit), limit: limit}
}

// add records one span and returns its index among kept spans (-1 if
// over the cap), for children to name as parent. A nil recorder records
// nothing.
func (r *recorder) add(req int64, parent int32, l layer, t0, t1 time.Time) int32 {
	if r == nil {
		return -1
	}
	d := t1.Sub(t0).Nanoseconds()
	r.sum[l] += d
	r.n[l]++
	if len(r.spans) == r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{req: req, parent: parent, layer: l, start: t0.Sub(r.base).Nanoseconds(), dur: d})
	return int32(len(r.spans) - 1)
}

// meanNS is the mean span duration of one layer (0 for none).
func (r *recorder) meanNS(l layer) float64 {
	if r == nil || r.n[l] == 0 {
		return 0
	}
	return float64(r.sum[l]) / float64(r.n[l])
}

// write stores the kept spans as CSV under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	// bufio.Writer keeps the first write error and Flush returns it, so
	// the per-line results carry nothing Flush does not.
	w := bufio.NewWriter(f)
	_, _ = fmt.Fprintf(w, "# spans kept %d, dropped over cap %d\nid,req,parent,layer,start_ns,dur_ns\n", len(r.spans), r.dropped)
	for i, s := range r.spans {
		_, _ = fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.req, s.parent, layerNames[s.layer], s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write already failed; report that error
		return "", err
	}
	return path, f.Close()
}
