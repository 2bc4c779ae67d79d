package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"lfo/internal/gen"
	"lfo/internal/trace"
)

// goldenLabel pins one Compute result: the SHA-256 of Admit (one byte per
// request) and the hit totals derived from it, with MissCost compared
// bit for bit.
type goldenLabel struct {
	admit    string
	hits     int
	hitBytes int64
	missCost uint64 // math.Float64bits
}

// goldenLabels pins OPT's output on retrain-shaped windows: 5K requests,
// CDN mix at 16 MiB (capacity binds on almost every step) and web mix at
// 8 MiB (every interval fits), BHR costs. Under BHR every bypass arc has
// the same per-byte cost, so the flow has many optima and the solver's
// augmentation order decides which one is returned; a changed hash means
// the labels, and every model trained on them, changed.
var goldenLabels = map[string]goldenLabel{
	"cdn/1":        {"1eeec8782f003a00db51db1cc443ff57585020646aa45f2c29dd6fbfb357fd90", 744, 1598689081, 0x4200b22224b80000},
	"cdn/2":        {"97f4286e38bf8b3c476aee25de4a7edb25612e9f357df2e3d9556e54f8621373", 707, 2226797108, 0x42010de1e6c80000},
	"cdn/3":        {"10a6d5f98481aa9dc1a2fc3d923e24b7cb6a5b8ee612cd8c931171eea40d4d6d", 651, 1267293517, 0x42091fcb0ef80000},
	"web/1":        {"1c291e68760ef6d4d96525e2610b73f17d058fa941a698dc6751a0220ed023f9", 2032, 34887935, 0x418914cc98000000},
	"web/2":        {"ff15ec4c464e5339472496e6a8b00a9a617cae357e01468561b490d53240b815", 1978, 30662922, 0x41877d0bf0000000},
	"web/3":        {"2e112d99f7e6ab8ba31457cb6694913ee1b5735182bbdcf28a128fd42dd23310", 1995, 30575413, 0x4187b58190000000},
	"cdn/1/seg4":   {"ca0221f650ea8808fd3d1d5f3b60ca13306c811565ee1ac6be0e0fbb7eb73a1a", 810, 1599408063, 0x4200b1ca60880000},
	"web/1/seg4":   {"1c291e68760ef6d4d96525e2610b73f17d058fa941a698dc6751a0220ed023f9", 2032, 34887935, 0x418914cc98000000},
	"cdn/1/greedy": {"622b546f4fee1f3a554b6dddf70a265b66538d6209598e480e60e74f743498a9", 740, 1594919203, 0x4200b3ee55680000},
}

func TestOPTGoldenLabels(t *testing.T) {
	cases := []struct {
		name  string
		mix   func(int, int64) gen.Config
		seed  int64
		cache int64
		cfg   Config
	}{
		{"cdn/1", gen.CDNMix, 1, 16 << 20, Config{}},
		{"cdn/2", gen.CDNMix, 2, 16 << 20, Config{}},
		{"cdn/3", gen.CDNMix, 3, 16 << 20, Config{}},
		{"web/1", gen.WebMix, 1, 8 << 20, Config{}},
		{"web/2", gen.WebMix, 2, 8 << 20, Config{}},
		{"web/3", gen.WebMix, 3, 8 << 20, Config{}},
		{"cdn/1/seg4", gen.CDNMix, 1, 16 << 20, Config{Segments: 4}},
		{"web/1/seg4", gen.WebMix, 1, 8 << 20, Config{Segments: 4}},
		{"cdn/1/greedy", gen.CDNMix, 1, 16 << 20, Config{Algorithm: AlgoGreedy}},
	}
	for _, tc := range cases {
		tr, err := gen.Generate(tc.mix(5000, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		tr = tr.WithCosts(trace.ObjectiveBHR)
		cfg := tc.cfg
		cfg.CacheSize = tc.cache
		res, err := Compute(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		admit := make([]byte, len(res.Admit))
		for i, a := range res.Admit {
			if a {
				admit[i] = 1
			}
		}
		sum := sha256.Sum256(admit)
		got := goldenLabel{hex.EncodeToString(sum[:]), res.Hits, res.HitBytes, math.Float64bits(res.MissCost)}
		if want, ok := goldenLabels[tc.name]; !ok || got != want {
			t.Errorf("%s: got %#v, want %#v", tc.name, got, want)
		}
	}
}
