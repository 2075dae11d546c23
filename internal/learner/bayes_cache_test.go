package learner

import (
	"math"
	"testing"

	"zombie/internal/linalg"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// The naive-Bayes models score from per-(class, feature) terms cached at
// fit time. These tests pin the cached scores to reference copies of the
// formulas the models used before the cache existed, bit for bit: every
// committed learning curve depends on the scores not moving.

// refMultinomialLogJoint is the uncached MultinomialNB score: one
// logarithm per (class, non-zero feature) on every call.
func refMultinomialLogJoint(m *MultinomialNB, v FeatureVector, out []float64) {
	dim := float64(len(m.featCount[0]))
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		den := math.Log(m.featTotal[c] + m.alpha*dim)
		row := m.featCount[c]
		v.ForEachNonZero(func(i int, x float64) {
			if x > 0 {
				ll += x * (math.Log(row[i]+m.alpha) - den)
			}
		})
		out[c] = ll
	}
}

// refGaussianLogJoint is the uncached GaussianNB score: variance and its
// logarithm recomputed from the moments for every (class, feature).
func refGaussianLogJoint(m *GaussianNB, v FeatureVector, out []float64) {
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		n := m.classCount[c]
		for i := 0; i < v.Dim(); i++ {
			variance := m.varFloor
			if n >= 2 {
				variance = m.m2[c][i]/(n-1) + m.varFloor
			}
			d := v.At(i) - m.mean[c][i]
			// The conversion rounds the product, so it cannot fuse
			// with the subtraction into an FMA: the cached model rounds
			// the same term when it stores it.
			ll += float64(-0.5*math.Log(2*math.Pi*variance)) - d*d/(2*variance)
		}
		out[c] = ll
	}
}

// bayesVec draws a feature vector, sparse or dense. Values mix zeros,
// negatives and positives so both the count filter (MultinomialNB ignores
// non-positive values) and the Gaussian residuals are exercised.
func bayesVec(r *rng.RNG, dim int, sparse bool, shift float64) FeatureVector {
	x := make([]float64, dim)
	for i := range x {
		switch {
		case r.Bernoulli(0.4):
		case r.Bernoulli(0.1):
			x[i] = -r.Float64()
		default:
			x[i] = shift + r.Float64()*3
		}
	}
	if !sparse {
		return DenseVec(x)
	}
	var idx []int
	var val []float64
	for i, v := range x {
		if v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	return SparseVec(linalg.NewSparse(dim, idx, val))
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBayesScores fits a model through rounds of PartialFit interleaved
// with predictions, with a Reset and a refit between rounds, and compares
// the cached score against the reference after every fit.
func checkBayesScores(t *testing.T, seed int64, sparse bool, m Model, classes, dim int,
	got, want func(v FeatureVector, out []float64)) {
	t.Helper()
	r := rng.New(seed)
	probes := make([]FeatureVector, 8)
	for i := range probes {
		probes[i] = bayesVec(r, dim, sparse, 0)
	}
	g, w := make([]float64, classes), make([]float64, classes)
	compare := func(round, fit int) {
		t.Helper()
		for p, v := range probes {
			got(v, g)
			want(v, w)
			if !sameBits(g, w) {
				t.Fatalf("round %d after %d fits, probe %d: cached %v, reference %v", round, fit, p, g, w)
			}
		}
	}
	for round := 0; round < 3; round++ {
		compare(round, 0)
		fits := 1 + r.Intn(60)
		for fit := 1; fit <= fits; fit++ {
			class := r.Intn(classes)
			m.PartialFit(Example{Features: bayesVec(r, dim, sparse, float64(class)), Class: class})
			compare(round, fit)
		}
		m.Reset()
	}
}

func TestMultinomialNBCachedScoresMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, sparse := range []bool{false, true} {
			classes, dim := 2+int(seed%3), 5+int(seed%17)
			m := NewMultinomialNB(dim, classes, 0.1+float64(seed%4)*0.45)
			checkBayesScores(t, seed, sparse, m, classes, dim, m.logJoint,
				func(v FeatureVector, out []float64) { refMultinomialLogJoint(m, v, out) })
		}
	}
}

func TestGaussianNBCachedScoresMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, sparse := range []bool{false, true} {
			classes, dim := 2+int(seed%3), 3+int(seed%13)
			m := NewGaussianNB(dim, classes, math.Pow(10, -float64(1+seed%6)))
			checkBayesScores(t, seed, sparse, m, classes, dim, m.logJoint,
				func(v FeatureVector, out []float64) { refGaussianLogJoint(m, v, out) })
		}
	}
}

// refClassifier predicts with a reference score, so a holdout can score it
// next to the cached model.
type refClassifier struct {
	Model
	classes int
	score   func(v FeatureVector, out []float64)
}

func (c refClassifier) NumClasses() int { return c.classes }

func (c refClassifier) PredictClass(v FeatureVector) int {
	out := make([]float64, c.classes)
	c.score(v, out)
	return linalg.ArgMax(out)
}

// TestBayesCachedScoresUnderConcurrentQuality scores a holdout with four
// workers between fits — the engine's eval path — and requires the
// quality of the reference predictions; run it under -race to show
// prediction only reads the cached tables.
func TestBayesCachedScoresUnderConcurrentQuality(t *testing.T) {
	const dim, classes, n = 12, 3, 1200
	for _, sparse := range []bool{false, true} {
		r := rng.New(5)
		examples := make([]Example, n)
		for i := range examples {
			class := i % classes
			examples[i] = Example{Features: bayesVec(r, dim, sparse, float64(class)), Class: class}
		}
		h := NewHoldout(examples, MetricAccuracy, 1)
		mn := NewMultinomialNB(dim, classes, 1)
		gn := NewGaussianNB(dim, classes, 1e-3)
		models := []struct {
			m   Model
			ref refClassifier
		}{
			{mn, refClassifier{mn, classes, func(v FeatureVector, out []float64) { refMultinomialLogJoint(mn, v, out) }}},
			{gn, refClassifier{gn, classes, func(v FeatureVector, out []float64) { refGaussianLogJoint(gn, v, out) }}},
		}
		for step := 0; step < 6; step++ {
			for _, ex := range examples[step*40 : (step+1)*40] {
				mn.PartialFit(ex)
				gn.PartialFit(ex)
			}
			for _, mm := range models {
				got, want := h.QualityParallel(mm.m, 4), h.Quality(mm.ref)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("sparse=%v step %d %T: parallel quality %v, reference %v", sparse, step, mm.m, got, want)
				}
			}
			// Raw scores too, four predictions in flight at once.
			mismatch := parallel.Map(4, len(examples), func(i int) bool {
				g, w := make([]float64, classes), make([]float64, classes)
				v := examples[i].Features
				mn.logJoint(v, g)
				refMultinomialLogJoint(mn, v, w)
				same := sameBits(g, w)
				gn.logJoint(v, g)
				refGaussianLogJoint(gn, v, w)
				return !same || !sameBits(g, w)
			})
			for i, bad := range mismatch {
				if bad {
					t.Fatalf("sparse=%v step %d: example %d scores differ from the reference", sparse, step, i)
				}
			}
		}
	}
}
