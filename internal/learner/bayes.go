package learner

import (
	"math"

	"zombie/internal/linalg"
)

// MultinomialNB is an incremental multinomial naive Bayes classifier with
// Laplace (add-alpha) smoothing. It expects non-negative feature values
// (term counts or tf-idf weights) and is the natural learner for the
// hashed text features Zombie's wiki task produces. Negative feature
// values are treated as zero.
//
// Scoring reads logCount, the per-(class, feature) log of the smoothed
// count, which PartialFit keeps current for exactly the coordinates it
// touches; a holdout evaluation therefore takes no logarithm per feature.
type MultinomialNB struct {
	alpha      float64
	classCount []float64
	featCount  [][]float64 // [class][feature] accumulated counts
	logCount   [][]float64 // [class][feature] math.Log(featCount+alpha)
	featTotal  []float64   // [class] sum over features
	seen       int
}

// NewMultinomialNB returns a multinomial NB over dim features and
// numClasses classes with smoothing alpha. It panics if alpha <= 0.
func NewMultinomialNB(dim, numClasses int, alpha float64) *MultinomialNB {
	if dim <= 0 || numClasses < 2 {
		panic("learner: MultinomialNB requires dim > 0 and numClasses >= 2")
	}
	if alpha <= 0 {
		panic("learner: MultinomialNB alpha must be > 0")
	}
	m := &MultinomialNB{
		alpha:      alpha,
		classCount: make([]float64, numClasses),
		featCount:  make([][]float64, numClasses),
		logCount:   make([][]float64, numClasses),
		featTotal:  make([]float64, numClasses),
	}
	for c := range m.featCount {
		m.featCount[c] = make([]float64, dim)
		m.logCount[c] = make([]float64, dim)
	}
	m.Reset()
	return m
}

// PartialFit implements Model.
func (m *MultinomialNB) PartialFit(ex Example) {
	checkDim(len(m.featCount[0]), ex.Features, "MultinomialNB")
	checkClass(len(m.featCount), ex.Class, "MultinomialNB")
	m.classCount[ex.Class]++
	row, logRow := m.featCount[ex.Class], m.logCount[ex.Class]
	ex.Features.ForEachNonZero(func(i int, v float64) {
		if v > 0 {
			row[i] += v
			logRow[i] = math.Log(row[i] + m.alpha)
			m.featTotal[ex.Class] += v
		}
	})
	m.seen++
}

// logJoint computes the unnormalized log posterior for every class.
func (m *MultinomialNB) logJoint(v FeatureVector, out []float64) {
	dim := float64(len(m.featCount[0]))
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		// Smoothed class prior; with no data all classes tie.
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		den := math.Log(m.featTotal[c] + m.alpha*dim)
		logRow := m.logCount[c]
		v.ForEachNonZero(func(i int, x float64) {
			if x > 0 {
				ll += x * (logRow[i] - den)
			}
		})
		out[c] = ll
	}
}

// PredictClass implements Classifier.
func (m *MultinomialNB) PredictClass(v FeatureVector) int {
	return m.PredictClassInto(v, make([]float64, len(m.featCount)))
}

// PredictClassInto implements BufferedClassifier.
func (m *MultinomialNB) PredictClassInto(v FeatureVector, buf []float64) int {
	checkDim(len(m.featCount[0]), v, "MultinomialNB")
	out := buf[:len(m.featCount)]
	m.logJoint(v, out)
	return linalg.ArgMax(out)
}

// Proba implements ProbClassifier.
func (m *MultinomialNB) Proba(v FeatureVector) []float64 {
	checkDim(len(m.featCount[0]), v, "MultinomialNB")
	out := make([]float64, len(m.featCount))
	m.logJoint(v, out)
	linalg.Softmax(out, out)
	return out
}

// NumClasses implements Classifier.
func (m *MultinomialNB) NumClasses() int { return len(m.featCount) }

// Seen implements Model.
func (m *MultinomialNB) Seen() int { return m.seen }

// ConcurrentPredictable implements ConcurrentPredictor: prediction only
// reads the fitted counts and their cached log terms.
func (m *MultinomialNB) ConcurrentPredictable() {}

// OrderInsensitiveFit implements OrderInsensitive: the fitted counts are
// sums over the example set, independent of arrival order.
func (m *MultinomialNB) OrderInsensitiveFit() {}

// Reset implements Model.
func (m *MultinomialNB) Reset() {
	logAlpha := math.Log(m.alpha)
	for c := range m.featCount {
		linalg.Zero(m.featCount[c])
		for i := range m.logCount[c] {
			m.logCount[c][i] = logAlpha
		}
		m.classCount[c] = 0
		m.featTotal[c] = 0
	}
	m.seen = 0
}

// GaussianNB is an incremental Gaussian naive Bayes classifier: each
// feature is modeled per class by an online mean and variance (Welford
// update). It suits the dense numeric features of the song and image
// tasks.
//
// Scoring reads norm and twoVar, the per-(class, feature) Gaussian
// normalizer and doubled variance. PartialFit refreshes the fitted class's
// row eagerly, so prediction only ever reads the tables and concurrent
// scoring needs no lock.
type GaussianNB struct {
	classCount []float64
	mean       [][]float64
	m2         [][]float64
	norm       [][]float64 // [class][feature] -0.5*math.Log(2*math.Pi*variance)
	twoVar     [][]float64 // [class][feature] 2*variance
	varFloor   float64
	seen       int
}

// NewGaussianNB returns a Gaussian NB over dim features. varFloor guards
// against zero-variance features; it panics if varFloor <= 0.
func NewGaussianNB(dim, numClasses int, varFloor float64) *GaussianNB {
	if dim <= 0 || numClasses < 2 {
		panic("learner: GaussianNB requires dim > 0 and numClasses >= 2")
	}
	if varFloor <= 0 {
		panic("learner: GaussianNB varFloor must be > 0")
	}
	m := &GaussianNB{
		classCount: make([]float64, numClasses),
		mean:       make([][]float64, numClasses),
		m2:         make([][]float64, numClasses),
		norm:       make([][]float64, numClasses),
		twoVar:     make([][]float64, numClasses),
		varFloor:   varFloor,
	}
	for c := 0; c < numClasses; c++ {
		m.mean[c] = make([]float64, dim)
		m.m2[c] = make([]float64, dim)
		m.norm[c] = make([]float64, dim)
		m.twoVar[c] = make([]float64, dim)
	}
	m.Reset()
	return m
}

// PartialFit implements Model.
func (m *GaussianNB) PartialFit(ex Example) {
	checkDim(len(m.mean[0]), ex.Features, "GaussianNB")
	checkClass(len(m.mean), ex.Class, "GaussianNB")
	c := ex.Class
	m.classCount[c]++
	n := m.classCount[c]
	for i := 0; i < ex.Features.Dim(); i++ {
		x := ex.Features.At(i)
		delta := x - m.mean[c][i]
		m.mean[c][i] += delta / n
		m.m2[c][i] += delta * (x - m.mean[c][i])
	}
	m.refresh(c)
	m.seen++
}

// refresh recomputes class c's score terms from its fitted moments.
func (m *GaussianNB) refresh(c int) {
	n := m.classCount[c]
	norm, twoVar := m.norm[c], m.twoVar[c]
	for i, m2 := range m.m2[c] {
		variance := m.varFloor
		if n >= 2 {
			variance = m2/(n-1) + m.varFloor
		}
		norm[i] = -0.5 * math.Log(2*math.Pi*variance)
		twoVar[i] = 2 * variance
	}
}

func (m *GaussianNB) logJoint(v FeatureVector, out []float64) {
	totalDocs := 0.0
	for _, c := range m.classCount {
		totalDocs += c
	}
	for c := range out {
		prior := math.Log((m.classCount[c] + 1) / (totalDocs + float64(len(out))))
		ll := prior
		mean, norm, twoVar := m.mean[c], m.norm[c], m.twoVar[c]
		if v.sparse == nil {
			for i, x := range v.dense {
				d := x - mean[i]
				ll += norm[i] - d*d/twoVar[i]
			}
		} else {
			for i := range mean {
				d := v.sparse.At(i) - mean[i]
				ll += norm[i] - d*d/twoVar[i]
			}
		}
		out[c] = ll
	}
}

// PredictClass implements Classifier.
func (m *GaussianNB) PredictClass(v FeatureVector) int {
	return m.PredictClassInto(v, make([]float64, len(m.mean)))
}

// PredictClassInto implements BufferedClassifier.
func (m *GaussianNB) PredictClassInto(v FeatureVector, buf []float64) int {
	checkDim(len(m.mean[0]), v, "GaussianNB")
	out := buf[:len(m.mean)]
	m.logJoint(v, out)
	return linalg.ArgMax(out)
}

// Proba implements ProbClassifier.
func (m *GaussianNB) Proba(v FeatureVector) []float64 {
	checkDim(len(m.mean[0]), v, "GaussianNB")
	out := make([]float64, len(m.mean))
	m.logJoint(v, out)
	linalg.Softmax(out, out)
	return out
}

// NumClasses implements Classifier.
func (m *GaussianNB) NumClasses() int { return len(m.mean) }

// Seen implements Model.
func (m *GaussianNB) Seen() int { return m.seen }

// ConcurrentPredictable implements ConcurrentPredictor: prediction only
// reads the fitted moments and the score terms PartialFit refreshed.
func (m *GaussianNB) ConcurrentPredictable() {}

// OrderInsensitiveFit implements OrderInsensitive: the fitted moments are
// set statistics, independent of arrival order up to floating-point
// accumulation.
func (m *GaussianNB) OrderInsensitiveFit() {}

// Reset implements Model.
func (m *GaussianNB) Reset() {
	for c := range m.mean {
		linalg.Zero(m.mean[c])
		linalg.Zero(m.m2[c])
		m.classCount[c] = 0
		m.refresh(c)
	}
	m.seen = 0
}
