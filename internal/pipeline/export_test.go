package pipeline

import "scrubjay/internal/rdd"

// ResultKey returns the result-cache key Execute gives n's result when it
// runs over cat.
func ResultKey(rc *rdd.Context, n *Node, cat Catalog) (string, error) {
	srcs := map[string]resolvedSource{}
	if err := resolveSources(rc, n, cat, srcs); err != nil {
		return "", err
	}
	return n.digest(resultFormat, srcs), nil
}
