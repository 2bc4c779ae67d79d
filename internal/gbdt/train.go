package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lfo/internal/par"
)

// rowShardSize is the fixed row-shard granularity for parallel gradient
// work. It depends only on the dataset, never on the worker count, so
// per-shard accumulators reduced in shard order give bit-identical sums
// for any Params.Workers value.
const rowShardSize = 8192

// parHistMinWork gates the feature-parallel split pass: a pass with less
// work than this — gathered rows times features plus histogram bins —
// runs inline, where goroutine fan-out costs more than it saves. The gate
// depends only on the data, so it cannot break cross-worker-count
// determinism.
const parHistMinWork = 1 << 13

// Train fits a boosted-tree classifier to the dataset. A dataset with a
// single label class yields the base-score model with no trees.
func Train(d *Dataset, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := d.Len()
	if n == 0 {
		return nil, fmt.Errorf("gbdt: empty dataset")
	}

	// Base score: log-odds of the positive rate, clamped away from
	// degenerate infinities.
	pos := 0.0
	for i := 0; i < n; i++ {
		pos += d.Label(i)
	}
	rate := clamp(pos/float64(n), 1e-6, 1-1e-6)
	base := math.Log(rate / (1 - rate))
	m := &Model{Dim: d.Dim(), BaseScore: base}
	if npos := int(pos); npos == 0 || npos == n {
		// A single-class window has nothing to separate: every row has
		// the same gradient, so any split gain is rounding noise. The
		// base score alone is the model.
		if err := m.Compile(); err != nil {
			return nil, fmt.Errorf("gbdt: compiling model: %w", err)
		}
		return m, nil
	}

	t := &trainer{
		p:        p,
		d:        d,
		rng:      rand.New(rand.NewSource(p.Seed)),
		workers:  par.Resolve(p.Workers),
		grad:     make([]float64, n),
		hess:     make([]float64, n),
		scores:   make([]float64, n),
		orderTmp: make([]int32, n),
		gathered: make([]gradPair, n),
	}
	t.b = buildBinner(d, p.MaxBins)
	t.bd = binDataset(d, t.b)
	for i := range t.scores {
		t.scores[i] = base
	}

	// Bagging and GOSS grow each tree on a row sample; every other tree
	// covers all rows, and its leaf partition is the score update.
	sampled := p.GOSSTopRate > 0 || (p.BaggingFreq > 0 && p.BaggingFraction < 1)
	rows := t.allRows()
	for iter := 0; iter < p.NumIterations; iter++ {
		t.computeGradients()
		switch {
		case p.GOSSTopRate > 0:
			// GOSS re-samples (and re-weights gradients) every tree;
			// gradients are recomputed fresh above, so the in-place
			// amplification cannot compound across iterations.
			rows = t.sampleGOSS()
		case p.BaggingFreq > 0 && p.BaggingFraction < 1:
			if iter%p.BaggingFreq == 0 {
				rows = t.sampleRows()
			}
		}
		feats := t.sampleFeatures()
		tree := t.buildTree(rows, feats)
		if tree == nil {
			if !sampled && p.FeatureFraction >= 1 {
				// Nothing is redrawn between rounds and the scores did
				// not move, so every later round would find no split
				// either.
				break
			}
			// Another bagging/feature sample may still find one.
			continue
		}
		m.Trees = append(m.Trees, *tree)
		if !sampled {
			t.addLeafValues(tree)
			continue
		}
		// A sampled tree's leaves miss the unsampled rows, so walk the new
		// tree over every row through the flat kernel — the same batched
		// walk serving uses. Per-row writes are disjoint and the single
		// tree adds exactly one leaf value per row, so the scores are
		// bit-identical to per-row tree.predict calls for any worker
		// count. Trainer output always compiles: thresholds come from
		// finite bin edges and leaf values from hessian-guarded ratios.
		ft, err := compileFlat(d.Dim(), 0, m.Trees[len(m.Trees)-1:])
		if err != nil {
			return nil, fmt.Errorf("gbdt: compiling tree %d: %w", len(m.Trees)-1, err)
		}
		ft.AccumulateRaw(d.x, t.scores, t.workers)
	}
	if err := m.Compile(); err != nil {
		return nil, fmt.Errorf("gbdt: compiling model: %w", err)
	}
	return m, nil
}

type trainer struct {
	p       Params
	d       *Dataset
	b       *binner
	bd      *binned
	rng     *rand.Rand
	workers int

	grad, hess []float64
	scores     []float64

	// Scratch reused across boosting rounds to avoid per-iteration churn.
	rowScratch []int32      // allRows / sampleRows output
	gossIdx    []int32      // GOSS gradient-order permutation
	gossRows   []int32      // GOSS sampled-row output
	partG      []float64    // per-shard gradient sums (rowSums)
	partH      []float64    // per-shard hessian sums (rowSums)
	order      []int32      // the tree's rows; each leaf owns a contiguous range
	orderTmp   []int32      // right-side staging for applySplit's stable partition
	gathered   []gradPair   // the built child's (grad, hess) in row order
	open       []*leafCand  // the tree's current leaves
	bestBuild  []splitInfo  // per-feature candidates of histPass's built child
	bestDerive []splitInfo  // per-feature candidates of histPass's derived child
	histFree   []*histogram // recycled histogram storage
}

// computeGradients evaluates the logistic loss gradient/hessian at the
// current scores. Writes are per-row, so the fan-out is deterministic.
func (t *trainer) computeGradients() {
	par.Ranges(len(t.grad), t.workers, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := sigmoid(t.scores[i])
			t.grad[i] = p - t.d.Label(i)
			t.hess[i] = p * (1 - p)
		}
	})
}

// rowSums totals gradient/hessian mass over rows as fixed-size shard
// partials reduced in shard order — bit-identical for any worker count.
func (t *trainer) rowSums(rows []int32) (sumG, sumH float64) {
	shards := par.NumShards(len(rows), rowShardSize)
	if cap(t.partG) < shards {
		t.partG = make([]float64, shards)
		t.partH = make([]float64, shards)
	}
	partG := t.partG[:shards]
	partH := t.partH[:shards]
	par.Shards(len(rows), rowShardSize, t.workers, func(s, lo, hi int) {
		var g, h float64
		for _, r := range rows[lo:hi] {
			g += t.grad[r]
			h += t.hess[r]
		}
		partG[s] = g
		partH[s] = h
	})
	for s := 0; s < shards; s++ {
		sumG += partG[s]
		sumH += partH[s]
	}
	return sumG, sumH
}

// allRows fills the reusable row-index scratch with every row.
func (t *trainer) allRows() []int32 {
	rows := t.rowBuf(t.d.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// rowBuf returns the shared row scratch resized to n. Only one sampled
// row set is live at a time (the trainer re-samples in place), so reuse
// across boosting rounds is safe.
func (t *trainer) rowBuf(n int) []int32 {
	if cap(t.rowScratch) < n {
		t.rowScratch = make([]int32, n)
	}
	t.rowScratch = t.rowScratch[:n]
	return t.rowScratch
}

// sampleRows draws BaggingFraction of the rows without replacement.
func (t *trainer) sampleRows() []int32 {
	n := t.d.Len()
	k := int(float64(n) * t.p.BaggingFraction)
	if k < 1 {
		k = 1
	}
	perm := t.rng.Perm(n)
	rows := t.rowBuf(k)
	for i := 0; i < k; i++ {
		rows[i] = int32(perm[i])
	}
	return rows
}

// sampleGOSS implements gradient-based one-side sampling (Ke et al.,
// NeurIPS 2017): keep the top-a fraction of rows by |gradient|, sample a
// b fraction of the remainder uniformly, and amplify the sampled rows'
// gradient and hessian by (1-a)/b so histogram statistics stay unbiased.
func (t *trainer) sampleGOSS() []int32 {
	n := t.d.Len()
	if cap(t.gossIdx) < n {
		t.gossIdx = make([]int32, n)
	}
	idx := t.gossIdx[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ga, gb := math.Abs(t.grad[idx[a]]), math.Abs(t.grad[idx[b]])
		if ga != gb {
			return ga > gb
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	topN := int(t.p.GOSSTopRate * float64(n))
	if topN < 1 {
		topN = 1
	}
	if topN > n {
		topN = n
	}
	rows := append(t.gossRows[:0], idx[:topN]...)
	rest := idx[topN:]
	sampleN := int(t.p.GOSSOtherRate * float64(n))
	if sampleN > len(rest) {
		sampleN = len(rest)
	}
	if sampleN > 0 {
		amplify := (1 - t.p.GOSSTopRate) / t.p.GOSSOtherRate
		perm := t.rng.Perm(len(rest))
		for i := 0; i < sampleN; i++ {
			r := rest[perm[i]]
			t.grad[r] *= amplify
			t.hess[r] *= amplify
			rows = append(rows, r)
		}
	}
	t.gossRows = rows
	return rows
}

// sampleFeatures draws FeatureFraction of the features for one tree.
func (t *trainer) sampleFeatures() []int {
	dim := t.d.Dim()
	if t.p.FeatureFraction >= 1 {
		feats := make([]int, dim)
		for i := range feats {
			feats[i] = i
		}
		return feats
	}
	k := int(float64(dim) * t.p.FeatureFraction)
	if k < 1 {
		k = 1
	}
	perm := t.rng.Perm(dim)
	feats := perm[:k]
	// Sort for deterministic iteration order.
	for i := 1; i < len(feats); i++ {
		for j := i; j > 0 && feats[j] < feats[j-1]; j-- {
			feats[j], feats[j-1] = feats[j-1], feats[j]
		}
	}
	return feats
}

// histBin accumulates gradient statistics for one (feature, bin) cell.
type histBin struct {
	grad, hess float64
	count      int32
}

// histogram is the per-leaf gradient histogram over the selected features,
// stored flat with per-feature offsets. The offsets slice is shared by
// every histogram of one tree (read-only).
type histogram struct {
	bins    []histBin
	offsets []int // parallel to the selected feature list, plus the end
}

// histOffsets computes the shared per-feature bin offsets for one tree's
// selected features.
func (t *trainer) histOffsets(feats []int) []int {
	offsets := make([]int, len(feats)+1)
	for i, f := range feats {
		offsets[i+1] = offsets[i] + t.b.numBins(f)
	}
	return offsets
}

// newHistogram hands out histogram storage, recycling storage released by
// leaves that no longer need theirs, so steady-state training allocates no
// per-leaf buffers. The bins are not cleared: the fused pass clears each
// feature's slice right before filling it.
func (t *trainer) newHistogram(offsets []int) *histogram {
	need := offsets[len(offsets)-1]
	if n := len(t.histFree); n > 0 && cap(t.histFree[n-1].bins) >= need {
		h := t.histFree[n-1]
		t.histFree = t.histFree[:n-1]
		h.bins = h.bins[:need]
		h.offsets = offsets
		return h
	}
	return &histogram{bins: make([]histBin, need), offsets: offsets}
}

// releaseHistogram returns a leaf's histogram to the free pool. A leaf
// needs its histogram only until it is split (the larger child inherits
// it) or until its split search finds nothing to split on.
func (t *trainer) releaseHistogram(c *leafCand) {
	if c.hist != nil {
		t.histFree = append(t.histFree, c.hist)
		c.hist = nil
	}
}

// gradPair is one row's gradient and hessian, gathered in leaf row order
// so the histogram fill streams them instead of chasing row indices.
type gradPair struct {
	grad, hess float64
}

// splitInfo describes the best split found for a leaf.
type splitInfo struct {
	valid       bool
	gain        float64
	feature     int
	bin         int // non-missing bins <= bin go left
	missingLeft bool
}

// leafCand is a leaf during leaf-wise growth. Its rows are a contiguous
// range of the tree's partitioned row order.
type leafCand struct {
	rows    []int32
	sumGrad float64
	sumHess float64
	depth   int
	nodeIdx int32
	hist    *histogram
	best    splitInfo
}

// leafObjective is the regularized loss contribution of a leaf.
func (t *trainer) leafObjective(g, h float64) float64 {
	return g * g / (h + t.p.Lambda)
}

// leafValue is the shrunk optimal leaf weight.
func (t *trainer) leafValue(g, h float64) float64 {
	return -t.p.LearningRate * g / (h + t.p.Lambda)
}

// splittable reports whether a leaf has the rows for any valid split:
// both sides need MinDataInLeaf rows.
func (t *trainer) splittable(c *leafCand) bool {
	return len(c.rows) >= 2*t.p.MinDataInLeaf
}

// histPass is the fused per-split kernel. It accumulates build's
// histogram from build's rows and, when derive is non-nil, turns parent's
// storage into derive's histogram by subtracting build's from it in
// place; it then sets each child's best split (build's only if build can
// split at all). Per feature the four steps — clear build's bins, fill
// them from the gathered (grad, hess) pairs, subtract them from parent's
// bins, scan both children — run back to back while that feature's bins
// are in L1. Features fan out across workers: each writes only its own
// bins and candidate slots, rows are accumulated in leaf order within
// every feature, and the candidates are reduced in feature order with a
// strictly-greater comparison (first wins: lowest feature, then lowest
// bin), so the result is bit-identical to a sequential pass for any
// worker count.
func (t *trainer) histPass(feats []int, build, derive *leafCand, parent *histogram) {
	gathered := t.gathered[:len(build.rows)]
	for i, r := range build.rows {
		gathered[i] = gradPair{t.grad[r], t.hess[r]}
	}
	if cap(t.bestBuild) < len(feats) {
		t.bestBuild = make([]splitInfo, len(feats))
		t.bestDerive = make([]splitInfo, len(feats))
	}
	bestBuild := t.bestBuild[:len(feats)]
	bestDerive := t.bestDerive[:len(feats)]
	scanBuild := t.splittable(build)
	buildObj := t.leafObjective(build.sumGrad, build.sumHess)
	var deriveObj float64
	if derive != nil {
		derive.hist = parent
		deriveObj = t.leafObjective(derive.sumGrad, derive.sumHess)
	}

	workers := t.workers
	if len(build.rows)*len(feats)+len(build.hist.bins) < parHistMinWork {
		workers = 1
	}
	offsets := build.hist.offsets
	par.Ranges(len(feats), workers, 1, func(fiLo, fiHi int) {
		for fi := fiLo; fi < fiHi; fi++ {
			f := feats[fi]
			lo, hi := offsets[fi], offsets[fi+1]
			bins := build.hist.bins[lo:hi]
			clear(bins)
			col := t.bd.cols[f]
			for i, r := range build.rows {
				b := &bins[col[r]]
				b.grad += gathered[i].grad
				b.hess += gathered[i].hess
				b.count++
			}
			if scanBuild {
				bestBuild[fi] = t.bestSplitForFeature(bins, build, buildObj, f)
			}
			if derive == nil {
				continue
			}
			pb := parent.bins[lo:hi]
			pb = pb[:len(bins)]
			for k := range pb {
				pb[k].grad -= bins[k].grad
				pb[k].hess -= bins[k].hess
				pb[k].count -= bins[k].count
			}
			bestDerive[fi] = t.bestSplitForFeature(pb, derive, deriveObj, f)
		}
	})
	if scanBuild {
		build.best = reduceSplits(bestBuild)
	}
	if derive != nil {
		derive.best = reduceSplits(bestDerive)
	}
}

// reduceSplits picks the best per-feature candidate in feature order,
// keeping the first of equal gains.
func reduceSplits(bests []splitInfo) splitInfo {
	best := splitInfo{}
	for _, s := range bests {
		if s.valid && (!best.valid || s.gain > best.gain) {
			best = s
		}
	}
	return best
}

// bestSplitForFeature scans one feature's bins for the leaf's best split,
// in the order of a plain scan over every bin: split after bin b (bins
// 1..b left, b below the last bin), missing rows right and then left. It
// skips only evaluations that cannot change the result:
//   - a bin after bin 1 whose count, grad and hess are all exactly zero
//     leaves the prefix sums as they were, so its evaluation ties the
//     previous bin's and first-wins keeps the earlier one (count alone
//     is not enough: subtraction leaves rounding residue in grad/hess);
//   - once the right side holds fewer than MinDataInLeaf rows it only
//     shrinks, so no later bin is valid;
//   - while the left side, missing rows included, holds fewer than
//     MinDataInLeaf rows, both missing directions are invalid.
func (t *trainer) bestSplitForFeature(bins []histBin, c *leafCand, parentObj float64, f int) splitInfo {
	best := splitInfo{}
	totalG, totalH := c.sumGrad, c.sumHess
	totalC := int32(len(c.rows))
	minData := int32(t.p.MinDataInLeaf)
	miss := bins[missingBin]
	var accG, accH float64
	var accC int32
	for b := 1; b < len(bins)-1; b++ {
		cell := bins[b]
		if b > 1 && cell.count == 0 && cell.grad == 0 && cell.hess == 0 {
			continue
		}
		accG += cell.grad
		accH += cell.hess
		accC += cell.count
		if totalC-accC < minData {
			break
		}
		if accC+miss.count < minData {
			continue
		}
		// Case 1: missing goes right.
		if gain, ok := t.splitGain(parentObj, accG, accH, accC,
			totalG-accG, totalH-accH, totalC-accC); ok && (!best.valid || gain > best.gain) {
			best = splitInfo{valid: true, gain: gain, feature: f, bin: b}
		}
		// Case 2: missing goes left.
		if miss.count == 0 {
			continue
		}
		if gain, ok := t.splitGain(parentObj, accG+miss.grad, accH+miss.hess, accC+miss.count,
			totalG-accG-miss.grad, totalH-accH-miss.hess, totalC-accC-miss.count); ok && (!best.valid || gain > best.gain) {
			best = splitInfo{valid: true, gain: gain, feature: f, bin: b, missingLeft: true}
		}
	}
	return best
}

// splitGain returns a candidate split's gain, and false when a side
// breaks a leaf constraint or the gain does not clear MinGainToSplit.
func (t *trainer) splitGain(parentObj, lg, lh float64, lc int32, rg, rh float64, rc int32) (float64, bool) {
	p := &t.p
	if lc < int32(p.MinDataInLeaf) || rc < int32(p.MinDataInLeaf) ||
		lh < p.MinSumHessianInLeaf || rh < p.MinSumHessianInLeaf {
		return 0, false
	}
	gain := t.leafObjective(lg, lh) + t.leafObjective(rg, rh) - parentObj
	return gain, !(gain <= p.MinGainToSplit) // not ">": a NaN gain stays a candidate
}

// buildTree grows one tree leaf-wise over rows and leaves its final
// leaves in t.open. Returns nil when no split improves the objective.
// Leaves that can never split get no histogram and no split search: the
// children of the split that reaches NumLeaves, children at MaxDepth, and
// children with fewer than 2·MinDataInLeaf rows.
func (t *trainer) buildTree(rows []int32, feats []int) *Tree {
	sumG, sumH := t.rowSums(rows)
	tree := &Tree{}
	tree.Nodes = append(tree.Nodes, node{Feature: -1, Value: t.leafValue(sumG, sumH)})
	t.order = append(t.order[:0], rows...)

	offsets := t.histOffsets(feats)
	root := &leafCand{rows: t.order, sumGrad: sumG, sumHess: sumH}
	if t.splittable(root) {
		root.hist = t.newHistogram(offsets)
		t.histPass(feats, root, nil, nil)
		if !root.best.valid {
			t.releaseHistogram(root)
		}
	}

	open := append(t.open[:0], root)
	numLeaves := 1
	for numLeaves < t.p.NumLeaves {
		// Pick the open leaf with the highest gain.
		bi := -1
		for i, c := range open {
			if c.best.valid && (bi < 0 || c.best.gain > open[bi].best.gain) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		c := open[bi]
		open[bi] = open[len(open)-1]
		open = open[:len(open)-1]

		left, right := t.applySplit(tree, c)
		numLeaves++
		open = append(open, left, right)
		if numLeaves == t.p.NumLeaves || (t.p.MaxDepth > 0 && left.depth >= t.p.MaxDepth) {
			t.releaseHistogram(c)
			continue
		}
		// Histogram subtraction: materialize the smaller child, derive
		// the sibling from the parent. The larger child has at least as
		// many rows, so if it cannot split neither can the smaller.
		small, large := left, right
		if len(left.rows) > len(right.rows) {
			small, large = right, left
		}
		if !t.splittable(large) {
			t.releaseHistogram(c)
			continue
		}
		small.hist = t.newHistogram(offsets)
		t.histPass(feats, small, large, c.hist)
		c.hist = nil // the larger child took it over
		for _, l := range [2]*leafCand{small, large} {
			if !l.best.valid {
				t.releaseHistogram(l)
			}
		}
	}
	for _, c := range open {
		t.releaseHistogram(c)
	}
	t.open = open
	if numLeaves == 1 {
		return nil
	}
	return tree
}

// applySplit partitions the leaf's rows stably in place — left rows keep
// their order at the front, right rows theirs behind them — and rewrites
// its tree node as an internal split with two fresh leaves.
func (t *trainer) applySplit(tree *Tree, c *leafCand) (left, right *leafCand) {
	s := c.best
	col := t.bd.cols[s.feature]
	rightRows := t.orderTmp[:0]
	nl := 0
	var lg, lh float64
	for _, r := range c.rows {
		b := col[r]
		goLeft := false
		if b == missingBin {
			goLeft = s.missingLeft
		} else {
			goLeft = int(b) <= s.bin
		}
		if goLeft {
			c.rows[nl] = r
			nl++
			lg += t.grad[r]
			lh += t.hess[r]
		} else {
			rightRows = append(rightRows, r)
		}
	}
	copy(c.rows[nl:], rightRows)

	li := int32(len(tree.Nodes))
	tree.Nodes = append(tree.Nodes, node{Feature: -1, Value: t.leafValue(lg, lh)})
	ri := int32(len(tree.Nodes))
	tree.Nodes = append(tree.Nodes, node{
		Feature: -1,
		Value:   t.leafValue(c.sumGrad-lg, c.sumHess-lh),
	})

	n := &tree.Nodes[c.nodeIdx]
	n.Feature = int32(s.feature)
	n.Threshold = t.b.threshold(s.feature, s.bin)
	n.MissingLeft = s.missingLeft
	n.Left, n.Right = li, ri
	n.Value = 0

	left = &leafCand{rows: c.rows[:nl:nl], sumGrad: lg, sumHess: lh, depth: c.depth + 1, nodeIdx: li}
	right = &leafCand{rows: c.rows[nl:], sumGrad: c.sumGrad - lg, sumHess: c.sumHess - lh, depth: c.depth + 1, nodeIdx: ri}
	return left, right
}

// addLeafValues folds a tree grown on every row into the boosting scores
// from its leaf partition. Each row sits in exactly one final leaf and
// gets that leaf's value added once — the single addition the flat walk
// makes — and the binned test bin <= s.bin routes every row exactly as the
// compiled test v <= edges[s.bin-1] does, NaN included.
func (t *trainer) addLeafValues(tree *Tree) {
	for _, c := range t.open {
		v := tree.Nodes[c.nodeIdx].Value
		for _, r := range c.rows {
			t.scores[r] += v
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
