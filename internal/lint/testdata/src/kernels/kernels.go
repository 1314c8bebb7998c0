// Package kernels exercises the analyzers over the columnar substrate:
// frame mask-kernel closures inherit the rdd compute contract (purity).
package kernels

import "sjvettest/frame"

var scanned int

// DirtyMasks hands the mask kernels closures that write state outliving one
// row evaluation.
func DirtyMasks(f *frame.Frame) []bool {
	matched := 0
	keep := frame.MaskRows(f, func(v int) bool {
		matched++ // assigns to captured variable
		return v > 0
	})
	_ = frame.MaskValues(f, "temp", func(v int) bool {
		scanned++ // writes package-level state
		return v < 100
	})
	_ = matched
	return keep
}

// CleanMasks communicates only through the predicate's return value.
func CleanMasks(f *frame.Frame) []bool {
	threshold := 50
	return frame.MaskValues(f, "temp", func(v int) bool {
		return v > threshold // reading captures is fine
	})
}
