// Package frame is a miniature stand-in for the real columnar batch: just
// enough API surface (payload accessors, a builder) for the analyzers to
// recognize published frame storage.
package frame

// Frame is a batch of rows, reduced to one int column.
type Frame struct {
	cells []int
}

// New wraps a slice as a single-column frame.
func New(cells []int) *Frame {
	return &Frame{cells: cells}
}

// Column is one named payload vector of a frozen frame, sharing its storage.
type Column struct {
	Name string
	Ints []int
}

// Builder accumulates cells before freezing; it owns its storage until
// Freeze, after which the frame is immutable.
type Builder struct {
	cells []int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Append adds one cell to the builder's private storage.
func (b *Builder) Append(v int) { b.cells = append(b.cells, v) }

// Freeze publishes the accumulated cells as an immutable frame.
func (b *Builder) Freeze() *Frame { return &Frame{cells: b.cells} }

// Cells returns the live payload vector; callers must treat it as
// read-only.
func (f *Frame) Cells() []int { return f.cells }

// Cols returns column views sharing the frame's storage.
func (f *Frame) Cols() []Column {
	return []Column{{Name: "cells", Ints: f.cells}}
}
