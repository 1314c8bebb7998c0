// Package analysis implements the "distributed modeling/analysis" stage of
// the paper's system overview (Figure 2): once the derivation engine has
// produced a dataset relating the queried dimensions, analysts compute
// statistics over it — correlations, least-squares fits, grouped means — as
// data-parallel aggregations on the same substrate, without collecting rows
// to one place first.
package analysis

import (
	"fmt"
	"math"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// moments is the mergeable accumulator behind every statistic here:
// count and sums of x, y, x², y², and xy.
type moments struct {
	n                     int64
	sx, sy, sxx, syy, sxy float64
}

func (m moments) addXY(x, y float64) moments {
	m.n++
	m.sx += x
	m.sy += y
	m.sxx += x * x
	m.syy += y * y
	m.sxy += x * y
	return m
}

func (a moments) merge(b moments) moments {
	a.n += b.n
	a.sx += b.sx
	a.sy += b.sy
	a.sxx += b.sxx
	a.syy += b.syy
	a.sxy += b.sxy
	return a
}

// columnMoments aggregates the joint moments of two columns. Rows missing
// either value are skipped.
func columnMoments(ds *dataset.Dataset, colX, colY string) moments {
	return rdd.Aggregate(ds.Rows(), func() moments { return moments{} },
		func(m moments, r value.Row) moments {
			x, okX := r.Get(colX).AsFloat()
			y, okY := r.Get(colY).AsFloat()
			if !okX || !okY {
				return m
			}
			return m.addXY(x, y)
		},
		func(a, b moments) moments { return a.merge(b) },
	)
}

// Pearson computes the Pearson correlation coefficient between two numeric
// columns over rows where both are present.
func Pearson(ds *dataset.Dataset, colX, colY string) (float64, error) {
	for _, c := range []string{colX, colY} {
		if _, ok := ds.Schema()[c]; !ok {
			return 0, fmt.Errorf("analysis: dataset %q has no column %q", ds.Name(), c)
		}
	}
	m := columnMoments(ds, colX, colY)
	if m.n < 2 {
		return 0, fmt.Errorf("analysis: need at least 2 paired observations, have %d", m.n)
	}
	n := float64(m.n)
	cov := m.sxy/n - (m.sx/n)*(m.sy/n)
	varX := m.sxx/n - (m.sx/n)*(m.sx/n)
	varY := m.syy/n - (m.sy/n)*(m.sy/n)
	if varX <= 0 || varY <= 0 {
		return 0, fmt.Errorf("analysis: zero variance in %s", map[bool]string{true: colX, false: colY}[varX <= 0])
	}
	return cov / math.Sqrt(varX*varY), nil
}

// Fit is a least-squares line y = Slope*x + Intercept with its coefficient
// of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int64
}

// String renders the fit compactly.
func (f Fit) String() string {
	return fmt.Sprintf("y = %.4g*x + %.4g (R²=%.3f, n=%d)", f.Slope, f.Intercept, f.R2, f.N)
}

// LinearFit computes the ordinary-least-squares fit of colY against colX.
func LinearFit(ds *dataset.Dataset, colX, colY string) (Fit, error) {
	for _, c := range []string{colX, colY} {
		if _, ok := ds.Schema()[c]; !ok {
			return Fit{}, fmt.Errorf("analysis: dataset %q has no column %q", ds.Name(), c)
		}
	}
	m := columnMoments(ds, colX, colY)
	if m.n < 2 {
		return Fit{}, fmt.Errorf("analysis: need at least 2 paired observations, have %d", m.n)
	}
	n := float64(m.n)
	varX := m.sxx/n - (m.sx/n)*(m.sx/n)
	if varX <= 0 {
		return Fit{}, fmt.Errorf("analysis: zero variance in %s", colX)
	}
	cov := m.sxy/n - (m.sx/n)*(m.sy/n)
	slope := cov / varX
	intercept := m.sy/n - slope*(m.sx/n)
	varY := m.syy/n - (m.sy/n)*(m.sy/n)
	r2 := 0.0
	if varY > 0 {
		r := cov / math.Sqrt(varX*varY)
		r2 = r * r
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2, N: m.n}, nil
}

// GroupedMeans computes the mean of a value column per distinct value of a
// key column, data-parallel. The result maps the key's rendered string to
// the mean.
func GroupedMeans(ds *dataset.Dataset, keyCol, valCol string) (map[string]float64, error) {
	for _, c := range []string{keyCol, valCol} {
		if _, ok := ds.Schema()[c]; !ok {
			return nil, fmt.Errorf("analysis: dataset %q has no column %q", ds.Name(), c)
		}
	}
	type acc struct {
		sum float64
		n   int64
	}
	partials := rdd.Aggregate(ds.Rows(),
		func() map[string]acc { return map[string]acc{} },
		func(m map[string]acc, r value.Row) map[string]acc {
			v, ok := r.Get(valCol).AsFloat()
			if !ok {
				return m
			}
			k := r.Get(keyCol).String()
			a := m[k]
			a.sum += v
			a.n++
			m[k] = a
			return m
		},
		func(a, b map[string]acc) map[string]acc {
			for k, v := range b {
				cur := a[k]
				cur.sum += v.sum
				cur.n += v.n
				a[k] = cur
			}
			return a
		},
	)
	out := make(map[string]float64, len(partials))
	for k, a := range partials {
		if a.n > 0 {
			out[k] = a.sum / float64(a.n)
		}
	}
	return out, nil
}
