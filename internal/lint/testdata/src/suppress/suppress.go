// Package suppress exercises the //sjvet:ignore directive: same-line and
// line-above placement, bare (all-analyzer) form, and the case where the
// named analyzer does not match the finding (which must still be reported).
package suppress

import "sjvettest/rdd"

// Suppressed findings: none of these may be reported.
func Suppressed() int {
	r := rdd.Parallelize([]int{1})
	n := 0
	_ = rdd.Map(r, func(v int) int {
		n += v //sjvet:ignore purity -- single-partition fixture, provably no concurrent callers
		return v
	})
	_ = rdd.Map(r, func(v int) int {
		//sjvet:ignore -- bare form suppresses every analyzer on the next line
		n += v
		return v
	})
	return n
}

// WrongAnalyzer names determinism, so the purity finding still fires.
func WrongAnalyzer() int {
	r := rdd.Parallelize([]int{1})
	n := 0
	_ = rdd.Map(r, func(v int) int {
		n += v //sjvet:ignore determinism -- names the wrong analyzer on purpose
		return v
	})
	return n
}

var probes int

// bump counts a probe in package-level state: calling it from a compute
// closure is a purity finding at the call.
func bump(v int) int {
	probes++
	return v
}

// consume feeds a probe value through fn and offsets the result.
func consume(fn func(int) int, q int) int {
	return fn(0) + q
}

// LeakedDirective: the directive sits inside the inner closure, so it must
// NOT suppress the purity finding on the call's closing line, which belongs
// to the enclosing rdd.Map body (one line below the directive).
func LeakedDirective(r *rdd.RDD) *rdd.RDD {
	return rdd.Map(r, func(v int) int {
		return consume(func(x int) int {
			return x //sjvet:ignore purity -- scoped to this closure only
		}, bump(v))
	})
}

// ProperlyPlaced: the same shape with the directive in the enclosing
// scope, which does suppress the finding on its own line.
func ProperlyPlaced(r *rdd.RDD) *rdd.RDD {
	return rdd.Map(r, func(v int) int {
		return consume(func(x int) int {
			return x
		}, bump(v)) //sjvet:ignore purity -- reviewed: the probe counter is advisory
	})
}
