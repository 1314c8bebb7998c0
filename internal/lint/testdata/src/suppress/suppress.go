// Package suppress exercises the //sjvet:ignore directive: same-line and
// line-above placement, the bare (all-analyzer) form, a directive naming
// the wrong analyzer (the finding must still be reported), a directive
// naming no analyzer the suite has (reported itself), and function scoping.
package suppress

import "sync"

// Box guards a channel with a mutex; every send or receive under mu is a
// lockdiscipline finding.
type Box struct {
	mu sync.Mutex
	ch chan int
}

// Suppressed findings: none of these may be reported.
func (b *Box) Suppressed(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v //sjvet:ignore lockdiscipline -- the channel is buffered past every sender
	//sjvet:ignore -- bare form suppresses every analyzer on the next line
	b.ch <- v
}

// WrongAnalyzer names determinism, so the lockdiscipline finding still fires.
func (b *Box) WrongAnalyzer(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v //sjvet:ignore determinism -- names the wrong analyzer on purpose
}

// Misspelled suppresses the send through its first name; the misspelled
// second name matches no analyzer, so the directive reports it.
func (b *Box) Misspelled(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- v //sjvet:ignore lockdiscipline,determinsm -- the second name is a typo
}

// consume feeds a probe value through fn and offsets the result.
func consume(fn func(int) int, q int) int {
	return fn(0) + q
}

// LeakedDirective: the directive sits inside the inner closure, so it must
// NOT suppress the channel receive on the call's closing line, which
// belongs to the enclosing method body (one line below the directive).
func (b *Box) LeakedDirective() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return consume(func(x int) int {
		return x //sjvet:ignore lockdiscipline -- scoped to this closure only
	}, <-b.ch)
}

// ProperlyPlaced: the same shape with the directive in the enclosing
// scope, which does suppress the finding on its own line.
func (b *Box) ProperlyPlaced() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return consume(func(x int) int {
		return x
	}, <-b.ch) //sjvet:ignore lockdiscipline -- reviewed: the channel is never empty here
}
