package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lfo/internal/evict"
	"lfo/internal/gbdt"
	"lfo/internal/gen"
	"lfo/internal/trace"
)

// goldenModelHashes pins the SHA-256 of Model.Save for every model
// trained in TestTrainGoldenModels, keyed by window and configuration;
// every worker count must produce the same bytes. The trainer's split
// search, pruning and score update are all meant to be exact rewrites of
// the plain histogram algorithm, so a changed hash is a behaviour change,
// not a speed-up.
var goldenModelHashes = map[string]string{
	"cdn/default":  "33e5e07a21767ceb04e37c854c0e17a72135bbe9cb9572a5fbe7584b5b085860",
	"cdn/bagged":   "260e2c75a7e3314b94dd884e9f7ac3402f9d54044585ee2f111278a8f5823343",
	"cdn/goss":     "19f3457dc6a8e32ddb9973e67823ed01f9aff3563a95ce02f79e6aace7cae52e",
	"cdn/features": "69fcda7fef0586030c5bcd58036ddbee5926540e202467242a9929269ead34c4",
	"cdn/evict":    "cac78b2868af09f26bb58de961cca8025c5461ec89b6a94c641f1ba3647e1b17",
	"web/default":  "e2b3553351e2c4df8f11177b3876ba6716ccb8b8e1ba597d456b9a45ce722396",
	"web/bagged":   "355efb6ab4b0be34525f10856a76ddbc768d0a13e777bfe9bddb24eb17719f75",
	"web/goss":     "e2cad6869f687c22d221a51f92b8ed2dc8a60ae6aced49d8cb49708e677caaf9",
	"web/features": "d94b7a028809bea198ca2c351e3d9fde3aaaa3981bd1e28b0e6dffc2c488e045",
	"web/evict":    "3342f99f8aa758a90b6a4cd6f78b4596f0b289b5f60baa7d2961663e6f7be30f",
}

// goldenWindow labels the first n requests of a generated trace with the
// full-solve OPT, exactly as a production retrain window is labelled.
func goldenWindow(t *testing.T, cfg gen.Config, cacheSize int64) (*trace.Trace, *Extraction) {
	t.Helper()
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.WithCosts(trace.ObjectiveBHR)
	ex, err := Extract(tr, Config{CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return tr, ex
}

func saveHash(t *testing.T, m *gbdt.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTrainGoldenModels trains on fixed CDN and web windows under the
// default parameters and under variants that switch on every sampling
// path (bagging, GOSS, feature subsampling) and the depth cap, for one
// worker and for all cores, and requires every saved model to hash to
// its pinned value. The learned-eviction ranker, trained from the same
// labels, is pinned the same way.
func TestTrainGoldenModels(t *testing.T) {
	const n = 5000
	cdnTrace, cdn := goldenWindow(t, gen.CDNMix(n, 1), 16<<20)
	webTrace, web := goldenWindow(t, gen.WebMix(n, 1), 8<<20)

	bagged := gbdt.DefaultParams()
	bagged.BaggingFraction = 0.7
	bagged.BaggingFreq = 3
	bagged.FeatureFraction = 0.6
	bagged.MaxDepth = 5
	bagged.Seed = 7
	goss := gbdt.DefaultParams()
	goss.GOSSTopRate = 0.2
	goss.GOSSOtherRate = 0.1
	goss.FeatureFraction = 0.8
	goss.MaxDepth = 4
	goss.MinDataInLeaf = 10
	goss.Seed = 3
	feats := gbdt.DefaultParams()
	feats.FeatureFraction = 0.5
	feats.NumLeaves = 15
	feats.Lambda = 1
	feats.Seed = 11
	params := []struct {
		name string
		p    gbdt.Params
	}{{"default", gbdt.DefaultParams()}, {"bagged", bagged}, {"goss", goss}, {"features", feats}}

	seen := 0
	check := func(name string, workers int, m *gbdt.Model) {
		seen++
		got := saveHash(t, m)
		if want, ok := goldenModelHashes[name]; !ok || got != want {
			t.Errorf("%s, workers=%d: model hash %s, want %s", name, workers, got, want)
		}
	}
	for _, w := range []struct {
		name string
		tr   *trace.Trace
		ex   *Extraction
	}{{"cdn", cdnTrace, cdn}, {"web", webTrace, web}} {
		ds := w.ex.Dataset()
		for _, pc := range params {
			for _, workers := range []int{1, 0} {
				p := pc.p
				p.Workers = workers
				m, err := gbdt.Train(ds, p)
				if err != nil {
					t.Fatal(err)
				}
				check(w.name+"/"+pc.name, workers, m)
			}
		}
		for _, workers := range []int{1, 0} {
			p := gbdt.DefaultParams()
			p.Workers = workers
			m, err := evict.Train(w.tr.Requests[:w.ex.Requests], w.ex.Labels, p)
			if err != nil {
				t.Fatal(err)
			}
			check(w.name+"/evict", workers, m)
		}
	}
	if want := 2 * len(goldenModelHashes); seen != want {
		t.Errorf("trained %d models, want one per golden hash and worker count (%d)", seen, want)
	}
}
