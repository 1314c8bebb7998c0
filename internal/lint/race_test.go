//go:build race

package lint

// raceEnabled reports a -race build: TestRealTreeWitnesses runs the test
// rows only then.
const raceEnabled = true
