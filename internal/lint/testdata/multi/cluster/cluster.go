// Package cluster is the multi-module fixture's flow-sensitive half: one
// conn leaked on an error path and one error overwritten before it is read
// — each the minimal demonstration of the leakcheck and errflow analyzers
// on a second module.
package cluster

// Conn is a minimal closable connection.
type Conn struct {
	open bool
}

// Close releases the conn.
func (c *Conn) Close() error {
	c.open = false
	return nil
}

// dial opens a conn.
func dial() (*Conn, error) {
	return &Conn{open: true}, nil
}

// ping checks liveness without taking ownership.
func ping(c *Conn) error {
	if !c.open {
		return errClosed
	}
	return nil
}

var errClosed = &closedError{}

type closedError struct{}

func (*closedError) Error() string { return "closed" }

// Fetch leaks the conn when ping fails: the error return exits with c
// still open — the leakcheck finding.
func Fetch() (*Conn, error) {
	c, err := dial()
	if err != nil {
		return nil, err
	}
	if err := ping(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Exchange overwrites the push error with the drain error before anything
// reads it — the errflow finding.
func Exchange(push, drain func() error) error {
	err := push()
	err = drain()
	return err
}
