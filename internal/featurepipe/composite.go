package featurepipe

import (
	"fmt"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/linalg"
)

// CompositeFeature concatenates the feature vectors of several feature
// functions into one — the "add a new signal to the existing code" step of
// an engineering session, without rewriting the earlier extractors. The
// composite produces an example only when every part produces one (each
// part sees the same raw input); labels are taken from the first part, and
// the input counts as useful if any part marks it useful.
type CompositeFeature struct {
	FuncCore
	parts []FeatureFunc
}

// NewCompositeFeature builds a composite over the given parts. It returns
// an error when fewer than two parts are supplied or the parts disagree on
// class count.
func NewCompositeFeature(name string, parts ...FeatureFunc) (*CompositeFeature, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("featurepipe: composite %s needs at least two parts", name)
	}
	dim := 0
	classes := parts[0].NumClasses()
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("featurepipe: composite %s: part %d is nil", name, i)
		}
		if p.NumClasses() != classes {
			return nil, fmt.Errorf("featurepipe: composite %s: part %s has %d classes, want %d",
				name, p.Name(), p.NumClasses(), classes)
		}
		dim += p.Dim()
	}
	c := &CompositeFeature{
		FuncCore: FuncCore{FuncName: name, FuncDim: dim, Classes: classes},
		parts:    parts,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Extract implements FeatureFunc.
func (c *CompositeFeature) Extract(in *corpus.Input) (Result, error) {
	// Every part is extracted before assembly so the concatenated vector
	// is allocated once at its exact size. Parts emit non-zeros in
	// increasing index order and their offset ranges are disjoint, so the
	// concatenated coordinates arrive already sorted — the assembly is
	// O(nnz) with no map or sort.
	var stack [8]Result // composites rarely have more parts; more spill to the heap
	results := stack[:0]
	nnz := 0
	useful := false
	for _, p := range c.parts {
		res, err := p.Extract(in)
		if err != nil {
			return Result{}, fmt.Errorf("featurepipe: composite %s: part %s: %w", c.FuncName, p.Name(), err)
		}
		if !res.Produced {
			return Result{}, nil
		}
		if got := res.Example.Features.Dim(); got != p.Dim() {
			return Result{}, fmt.Errorf("featurepipe: composite %s: part %s produced dim %d, declared %d",
				c.FuncName, p.Name(), got, p.Dim())
		}
		useful = useful || res.Useful
		nnz += res.Example.Features.NNZ()
		results = append(results, res)
	}
	var idx []int
	var val []float64
	if nnz > 0 {
		idx, val = make([]int, 0, nnz), make([]float64, 0, nnz)
	}
	offset := 0
	for k, res := range results {
		res.Example.Features.ForEachNonZero(func(i int, x float64) {
			idx = append(idx, offset+i)
			val = append(val, x)
		})
		offset += c.parts[k].Dim()
	}
	first := results[0].Example
	ex := learner.Example{
		Features: learner.SparseVec(linalg.SparseFromOrdered(c.FuncDim, idx, val)),
		Class:    first.Class,
		Target:   first.Target,
	}
	return Result{Example: ex, Produced: true, Useful: useful}, nil
}
