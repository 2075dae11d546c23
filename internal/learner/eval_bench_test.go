package learner

import (
	"testing"

	"zombie/internal/linalg"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// The holdout size mirrors the full-scale engine configuration: a ~2k
// example holdout scored on every evaluation step, which makes Quality the
// engine's hottest read path. Allocations here are paid twice per bandit
// step (quality-delta reward brackets train with a before/after pair), so
// every benchmark reports allocs/op.

func BenchmarkHoldoutQuality(b *testing.B) {
	h, m := evalFixture(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quality(m)
	}
}

func BenchmarkHoldoutQualityParallel(b *testing.B) {
	h, m := evalFixture(b, 2000)
	workers := parallel.Workers(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.QualityParallel(m, workers)
	}
}

// BenchmarkHoldoutQualityMultinomial scores the sparse-count path
// (MultinomialNB over hashed text), the model the wiki workload trains.
func BenchmarkHoldoutQualityMultinomial(b *testing.B) {
	r := rng.New(11)
	const dim, n = 256, 2000
	examples := make([]Example, n)
	for i := range examples {
		class := i % 2
		var idx []int
		var val []float64
		for d := 0; d < dim; d += 32 {
			idx = append(idx, d+(i+class)%32)
			val = append(val, float64(r.IntRange(1, 4)))
		}
		examples[i] = Example{Features: SparseVec(linalg.NewSparse(dim, idx, val)), Class: class}
	}
	m := NewMultinomialNB(dim, 2, 1.0)
	for _, ex := range examples[:n/2] {
		m.PartialFit(ex)
	}
	h := NewHoldout(examples, MetricF1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quality(m)
	}
}

// BenchmarkHoldoutQualityGaussian scores the dense numeric path
// (GaussianNB over a songs-shaped task: 12 features, 10 classes), the
// model the songs workload trains.
func BenchmarkHoldoutQualityGaussian(b *testing.B) {
	r := rng.New(13)
	const dim, classes, n = 12, 10, 2000
	examples := make([]Example, n)
	for i := range examples {
		class := i % classes
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = r.NormFloat64() + float64(class*(d%3))*0.4
		}
		examples[i] = Example{Features: DenseVec(vec), Class: class}
	}
	m := NewGaussianNB(dim, classes, 1e-3)
	for _, ex := range examples[:n/2] {
		m.PartialFit(ex)
	}
	h := NewHoldout(examples, MetricF1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quality(m)
	}
}
