package stats

import (
	"sort"
	"strings"

	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
)

// StepActual is the observed cost of one executed plan step, reconstructed
// from a query's span tree. Row counts are -1 when the trace did not
// materialize the corresponding RDD (lazy steps fuse into their consumer).
type StepActual struct {
	// Derivation is the step's derivation name (the step span name).
	Derivation string `json:"derivation"`
	// Key is the DerivationKey the observation files under.
	Key string `json:"key"`
	// RowsIn and RowsOut are observed input/output row counts; -1 = unknown.
	RowsIn  int64 `json:"rows_in"`
	RowsOut int64 `json:"rows_out"`
	// Micros is the step span's wall time. Lazy upstream work that only
	// materialized inside this step is attributed here — observed cost is
	// charged at materialization barriers, matching how it was paid.
	Micros int64 `json:"micros"`
	// ShuffleBytes sums distributed exchange volume under the step.
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// CacheHit marks a step served from the derivation cache: the subtree
	// never ran, so nothing below it was observed.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// infraSegments are RDD lineage segments that carry rows through unchanged
// (1:1 maps, representation changes, shuffle plumbing). Dropping them from a
// stage name leaves the plan-level lineage whose row count the stage
// observed.
var infraSegments = map[string]bool{
	"exchange":       true,
	"exchange-write": true,
	"collect":        true,
	"count":          true,
	"mapPartitions":  true,
	"cogroup-left":   true,
	"cogroup-right":  true,
	"groupByKey":     true,
	"unbox":          true,
	"box":            true,
}

// Actuals reconstructs per-step observed costs for an executed plan from
// its trace. root may be the query span or the execute span. sourceRows
// optionally supplies known source cardinalities (e.g. from ingest) for
// inputs the trace itself never counted. Returns nil when the trace does
// not contain a step sequence matching the plan.
func Actuals(plan *pipeline.Plan, root *obs.SpanRecord, sourceRows map[string]int64) []StepActual {
	if plan == nil || plan.Root == nil || root == nil {
		return nil
	}
	exec := root
	if exec.Kind != obs.KindExec {
		if exec = root.Find(obs.KindExec); exec == nil {
			return nil
		}
	}
	m := &matcher{rows: lineageRows(exec), sources: sourceRows, ok: true}
	for _, c := range exec.Children {
		if c.Kind == obs.KindStep {
			m.steps = append(m.steps, c)
		}
	}
	m.node(plan.Root)
	if !m.ok {
		return nil
	}
	return m.out
}

// lineageRows scans every stage span under exec and maps canonical plan
// lineage → observed row count. Stage names are RDD lineage strings; a
// stage's rows_out counts the rows of the lineage left after infrastructure
// segments are dropped.
func lineageRows(exec *obs.SpanRecord) map[string]int64 {
	rows := map[string]int64{}
	for _, st := range exec.FindAll(obs.KindStage) {
		if st.Attrs == nil {
			continue
		}
		if _, ok := st.Attrs[obs.AttrRowsOut]; !ok {
			continue
		}
		if lin := canonicalLineage(st.Name); lin != "" {
			rows[lin] = st.AttrInt(obs.AttrRowsOut)
		}
	}
	return rows
}

// canonicalLineage normalizes an RDD lineage string to the param-free form
// nodeLineage produces for plan nodes: infrastructure segments dropped,
// transform parameters stripped, combine arguments recursively normalized.
// Returns "" for lineages that cannot correspond to a plan node.
func canonicalLineage(name string) string {
	segs := splitTop(name, '|')
	var kept []string
	for i, seg := range segs {
		base, args, hasArgs := splitCall(seg)
		if infraSegments[base] {
			continue
		}
		if i == 0 && hasArgs {
			// A parenthesized head is a combine call: its arguments are
			// full lineages of the two sides.
			var inner []string
			for _, a := range splitTop(args, ',') {
				c := canonicalLineage(a)
				if c == "" {
					return ""
				}
				inner = append(inner, c)
			}
			kept = append(kept, base+"("+strings.Join(inner, ",")+")")
			continue
		}
		// Sources and transforms keep only their name.
		kept = append(kept, base)
	}
	return strings.Join(kept, "|")
}

// splitTop splits s on sep at parenthesis depth zero.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// splitCall splits "name(args)" into name and args; hasArgs reports whether
// the segment had a parenthesized tail.
func splitCall(seg string) (base, args string, hasArgs bool) {
	i := strings.IndexByte(seg, '(')
	if i < 0 || !strings.HasSuffix(seg, ")") {
		return seg, "", false
	}
	return seg[:i], seg[i+1 : len(seg)-1], true
}

// nodeLineage renders a plan node in the same canonical form
// canonicalLineage produces from stage names.
func nodeLineage(n *pipeline.Node, memo map[*pipeline.Node]string) string {
	if s, ok := memo[n]; ok {
		return s
	}
	var s string
	switch n.Kind {
	case pipeline.KindSource:
		s = n.Dataset
	case pipeline.KindCombine:
		s = n.Derivation + "(" + nodeLineage(n.Inputs[0], memo) + "," + nodeLineage(n.Inputs[1], memo) + ")"
	default:
		s = nodeLineage(n.Inputs[0], memo) + "|" + n.Derivation
	}
	memo[n] = s
	return s
}

// NodeSources returns the sorted set of source dataset names feeding a plan
// subtree — the input identity DerivationKey files observations under.
func NodeSources(n *pipeline.Node) []string {
	set := map[string]bool{}
	var walk func(*pipeline.Node)
	walk = func(n *pipeline.Node) {
		if n == nil {
			return
		}
		if n.Kind == pipeline.KindSource {
			set[n.Dataset] = true
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(n)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// NodeKey builds the DerivationKey for one plan node: its derivation name
// plus the source set of each input subtree.
func NodeKey(n *pipeline.Node) string {
	inputs := make([][]string, 0, len(n.Inputs))
	for _, in := range n.Inputs {
		inputs = append(inputs, NodeSources(in))
	}
	return DerivationKey(n.Derivation, inputs...)
}

// matcher consumes the exec span's flat, post-ordered step children while
// walking the plan tree, mirroring pipeline.execNode: inputs first, then
// the node's own step span. A cache-hit step span stands in for its whole
// subtree (the subtree never executed).
type matcher struct {
	steps   []*obs.SpanRecord
	i       int
	rows    map[string]int64
	sources map[string]int64
	memo    map[*pipeline.Node]string
	out     []StepActual
	ok      bool
}

func (m *matcher) node(n *pipeline.Node) {
	if !m.ok || n == nil || n.Kind == pipeline.KindSource {
		return
	}
	if m.i < len(m.steps) {
		if sp := m.steps[m.i]; sp.Name == n.Derivation && sp.AttrBool(obs.AttrCacheHit) {
			m.i++
			m.out = append(m.out, StepActual{
				Derivation: n.Derivation, Key: NodeKey(n),
				RowsIn: -1, RowsOut: -1,
				Micros: sp.DurationMicros, CacheHit: true,
			})
			return
		}
	}
	for _, in := range n.Inputs {
		m.node(in)
	}
	if !m.ok {
		return
	}
	if m.i >= len(m.steps) || m.steps[m.i].Name != n.Derivation {
		m.ok = false
		return
	}
	sp := m.steps[m.i]
	m.i++
	a := StepActual{
		Derivation: n.Derivation, Key: NodeKey(n),
		RowsIn: -1, RowsOut: m.nodeRows(n),
		Micros: sp.DurationMicros, ShuffleBytes: shuffleBytesUnder(sp),
	}
	in, known := int64(0), true
	for _, input := range n.Inputs {
		r := m.nodeRows(input)
		if r < 0 {
			known = false
			break
		}
		in += r
	}
	if known {
		a.RowsIn = in
	}
	m.out = append(m.out, a)
}

// nodeRows resolves a plan subtree's observed row count: a stage that
// materialized its lineage, or (for sources) the supplied cardinalities.
func (m *matcher) nodeRows(n *pipeline.Node) int64 {
	if m.memo == nil {
		m.memo = map[*pipeline.Node]string{}
	}
	if r, ok := m.rows[nodeLineage(n, m.memo)]; ok {
		return r
	}
	if n.Kind == pipeline.KindSource {
		if r, ok := m.sources[n.Dataset]; ok {
			return r
		}
	}
	return -1
}

// shuffleBytesUnder sums distributed exchange volume across a step's stage
// descendants.
func shuffleBytesUnder(sp *obs.SpanRecord) int64 {
	var total int64
	for _, st := range sp.FindAll(obs.KindStage) {
		total += st.AttrInt(obs.AttrShuffleBytes)
	}
	return total
}

// Recorder feeds executed-query observations into a Store. The server
// installs one and calls Record after each successful traced query.
type Recorder struct {
	Store *Store
}

// Record extracts per-step actuals from a finished query trace and merges
// every informative one (ran for real, output count observed) into the
// store. When sourceRows is nil the store's own ingested table
// cardinalities stand in for source row counts the trace never
// materialized. Returns how many observations were recorded.
func (r Recorder) Record(plan *pipeline.Plan, root *obs.SpanRecord, sourceRows map[string]int64) int {
	if r.Store == nil || plan == nil || plan.Root == nil {
		return 0
	}
	if sourceRows == nil {
		sourceRows = map[string]int64{}
		for _, src := range NodeSources(plan.Root) {
			if t, ok := r.Store.Table(src); ok {
				sourceRows[src] = t.Rows
			}
		}
	}
	n := 0
	for _, a := range Actuals(plan, root, sourceRows) {
		if a.CacheHit || a.RowsOut < 0 {
			continue
		}
		in := a.RowsIn
		if in < 0 {
			in = 0
		}
		r.Store.Observe(a.Key, DerivationStats{
			Observations: 1,
			RowsIn:       in,
			RowsOut:      a.RowsOut,
			Micros:       a.Micros,
			ShuffleBytes: a.ShuffleBytes,
		})
		n++
	}
	return n
}
