// Package engine implements ScrubJay's derivation engine (§5 of the paper):
// given a catalog of annotated datasets and a query naming domain dimensions
// and value dimensions of interest, it searches for a sequence of
// derivations whose result relates them. The search runs over data semantics
// only — schemas, never rows — so queries resolve at interactive rates, and
// it memoizes pairwise combination results as in the paper's Algorithm 1.
//
// Like the paper, the search prefers high-precision plans: exact (natural)
// joins beat interpolation joins, more exactly matched shared dimensions
// beat fewer, and shorter derivation sequences beat longer ones, since every
// interpolation or aggregation step may lose precision (§5.2).
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"scrubjay/internal/derive"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
)

// QueryValue names one value dimension of interest, with optional units the
// result should be expressed in.
type QueryValue struct {
	Dimension string `json:"dimension"`
	Units     string `json:"units,omitempty"`
}

// Query is a ScrubJay query (§5.1): only dimensions, no table names, no
// join conditions. The engine derives everything else.
type Query struct {
	// Domains are the domain dimensions of interest (e.g. "job", "rack").
	Domains []string `json:"domains"`
	// Values are the value dimensions of interest (e.g. "temperature_difference").
	Values []QueryValue `json:"values"`
}

// String renders the query compactly.
func (q Query) String() string {
	var vals []string
	for _, v := range q.Values {
		if v.Units != "" {
			vals = append(vals, v.Dimension+"("+v.Units+")")
		} else {
			vals = append(vals, v.Dimension)
		}
	}
	return fmt.Sprintf("domains[%s] values[%s]",
		strings.Join(q.Domains, ","), strings.Join(vals, ","))
}

// Options tunes the engine's search.
type Options struct {
	// Candidate controls automatic transformation instantiation.
	Candidate derive.CandidateOptions
	// WindowSeconds is the interpolation-join window the engine uses when
	// it must relate inexactly matching ordered domains.
	WindowSeconds float64
	// MaxVariants bounds the transformation-closure size kept per dataset.
	MaxVariants int
	// Stats supplies observed statistics for physical costing. When nil the
	// engine runs the pure structural search (zero costing overhead and
	// byte-identical plans to the historical heuristic); when set, candidate
	// costs break structural ties and estimates annotate the final plan.
	Stats *stats.Store
}

// DefaultOptions matches the paper's facility data cadences: two-minute
// sensor sampling makes 120 s a natural correspondence window.
func DefaultOptions() Options {
	return Options{
		Candidate:     derive.DefaultCandidateOptions(),
		WindowSeconds: 120,
		MaxVariants:   32,
	}
}

// Engine solves queries against a catalog of dataset schemas.
type Engine struct {
	dict    *semantics.Dictionary
	schemas map[string]semantics.Schema
	opts    Options

	// pairMemo caches CombinePair results across queries, keyed by the
	// participating dataset-name sets (§5.2 memoization).
	pairMemo map[string]*combineResult
	// memoHits counts cache hits within the current Solve (reset at the top
	// of every solve; surfaced via MemoHits and the search trace).
	memoHits int
	// est is the physical-cost estimator, nil unless Options.Stats is set.
	est *estimator
	// lastEpoch is the stats-store epoch the memo tables were built against;
	// an epoch change invalidates them (learned facts re-cost candidates).
	lastEpoch int64
}

// New builds an engine over a catalog of schemas.
func New(dict *semantics.Dictionary, schemas map[string]semantics.Schema, opts Options) *Engine {
	if opts.MaxVariants <= 0 {
		opts.MaxVariants = 32
	}
	if opts.WindowSeconds <= 0 {
		opts.WindowSeconds = 120
	}
	if opts.Candidate.ExplodePeriodSeconds <= 0 {
		opts.Candidate.ExplodePeriodSeconds = 60
	}
	e := &Engine{
		dict:     dict,
		schemas:  schemas,
		opts:     opts,
		pairMemo: map[string]*combineResult{},
	}
	if opts.Stats != nil {
		e.est = newEstimator(opts.Stats)
		e.lastEpoch = opts.Stats.Epoch()
	}
	return e
}

// MemoHits reports how many pairwise combinations were answered from the
// memo table during the most recent Solve.
func (e *Engine) MemoHits() int { return e.memoHits }

// variant is one reachable (plan, schema) state for a dataset or a combined
// group of datasets.
type variant struct {
	node   *pipeline.Node
	schema semantics.Schema
	steps  int
}

// closure expands a variant by repeatedly applying every applicable
// candidate transformation, returning all reachable variants (including the
// input), deduplicated by schema fingerprint and sorted by step count.
func (e *Engine) closure(v variant) []variant {
	seen := map[string]bool{v.schema.Fingerprint(): true}
	out := []variant{v}
	frontier := []variant{v}
	for len(frontier) > 0 && len(out) < e.opts.MaxVariants {
		var next []variant
		for _, cur := range frontier {
			for _, t := range derive.Candidates(cur.schema, e.dict, e.opts.Candidate) {
				ns, err := t.DeriveSchema(cur.schema, e.dict)
				if err != nil {
					continue
				}
				fp := ns.Fingerprint()
				if seen[fp] {
					continue
				}
				seen[fp] = true
				nv := variant{
					node:   pipeline.TransformNode(t, cur.node),
					schema: ns,
					steps:  cur.steps + 1,
				}
				out = append(out, nv)
				next = append(next, nv)
				if len(out) >= e.opts.MaxVariants {
					break
				}
			}
		}
		frontier = next
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].steps < out[j].steps })
	return out
}

// group is a set of source datasets already related into one plan.
type group struct {
	names    []string // sorted source dataset names
	variants []variant
}

func (g *group) key() string { return strings.Join(g.names, ",") }

// combineResult is a memoized pairwise combination outcome. The search is
// two-phase: the logical phase ranks candidates structurally — bucket (join
// precision class + exactly matched dimensions) across pairs, fine (queried
// value dimensions present, join-ready representation, fewer steps) within
// a pair — and the physical phase breaks remaining ties by estimated cost,
// but only when the estimate is informed by real statistics. class keeps
// the precision class so the physical phase can restrict itself to choices
// that cannot change results (natural joins commute; interpolation probe
// direction does not).
type combineResult struct {
	ok      bool
	variant variant
	bucket  int
	fine    int
	class   int
	cost    Cost
}

// Precision classes (§5.2: prefer the highest-precision data available).
// A natural join over purely discrete shared dimensions is exact. An
// interpolation join is approximate. A natural join whose shared dimensions
// include a continuous one (exact equality on a continuous domain) ranks
// last: it is semantically fragile, per §4.3 ordered elements compare by
// distance, not equality.
const (
	classNaturalDiscrete = 3_000_000
	classInterp          = 2_000_000
	classNaturalCont     = 1_000_000
	bucketPerShared      = 1_000
)

// sharedHasContinuous reports whether any shared domain dimension is
// ordered and continuous.
func (e *Engine) sharedHasContinuous(shared []string) bool {
	for _, d := range shared {
		if dim, ok := e.dict.LookupDimension(d); ok && dim.Ordered && dim.Continuous {
			return true
		}
	}
	return false
}

// interpWindow sizes an interpolation-join correspondence window from the
// sampling cadences annotated on the two schemas' datetime domain columns
// (§4.2: each tool records at its own frequency). The window is the
// coarsest cadence involved — any instant of the finer stream then has a
// neighbour of the coarser one within the window. Unknown cadences fall
// back to the engine's configured default.
func (e *Engine) interpWindow(a, b semantics.Schema) float64 {
	w := 0.0
	for _, s := range []semantics.Schema{a, b} {
		for _, c := range s.DomainColumns() {
			entry := s[c]
			if entry.Units == "datetime" && entry.CadenceSeconds > w {
				w = entry.CadenceSeconds
			}
		}
	}
	if w <= 0 {
		return e.opts.WindowSeconds
	}
	return w
}

// variantFine scores how desirable a variant is as a join operand for this
// query: each queried value dimension it already carries is a win (the
// paper derives heat before joining, rates before joining); each structural
// (list/span) domain column left unexploded is a liability; extra steps
// cost a little.
func variantFine(v variant, wanted map[string]bool) int {
	fine := 0
	for dim := range wanted {
		if v.schema.HasValueDimension(dim) {
			fine += 10
		}
	}
	for _, c := range v.schema.DomainColumns() {
		u := v.schema[c].Units
		if u == "timespan" || strings.HasPrefix(u, "list<") {
			fine -= 5
		}
	}
	return fine - v.steps
}

// tryCombine attempts to combine two concrete variants.
func (e *Engine) tryCombine(a, b variant, wanted map[string]bool) (combineResult, bool) {
	shared := a.schema.SharedDomainDimensions(b.schema)
	if len(shared) == 0 {
		return combineResult{}, false
	}
	hasCont := e.sharedHasContinuous(shared)
	mk := func(c derive.Combination, s semantics.Schema, class int) combineResult {
		fine := variantFine(a, wanted) + variantFine(b, wanted)
		if class == classInterp {
			// The left side of an interpolation join is the probe: it
			// keeps its rows and receives interpolated right-side values.
			// Prefer probing with the more finely attributed dataset (more
			// domain dimensions), as the paper does in Figure 5 where the
			// per-job, per-node, per-instant data probes the rack heat.
			fine += len(a.schema.DomainDimensions()) - len(b.schema.DomainDimensions())
		}
		node := pipeline.CombineNode(c, a.node, b.node)
		r := combineResult{
			ok: true,
			variant: variant{
				node:   node,
				schema: s,
				steps:  a.steps + b.steps + 1,
			},
			bucket: class + bucketPerShared*len(shared),
			fine:   fine,
			class:  class,
		}
		if e.est != nil {
			if class != classInterp {
				// Hand the estimator the join-key columns before costing:
				// only the planner knows the schemas, and the NDV-based
				// cardinality estimate needs a column per shared dimension
				// on each side.
				e.est.registerJoin(node, joinKeysFor(a.schema, b.schema, shared))
			}
			r.cost = e.est.cost(node)
		}
		return r
	}
	nj := &derive.NaturalJoin{}
	njSchema, njErr := nj.DeriveSchema(a.schema, b.schema, e.dict)
	if njErr == nil && !hasCont {
		return mk(nj, njSchema, classNaturalDiscrete), true
	}
	ij := &derive.InterpolationJoin{WindowSeconds: e.interpWindow(a.schema, b.schema)}
	if s, err := ij.DeriveSchema(a.schema, b.schema, e.dict); err == nil {
		return mk(ij, s, classInterp), true
	}
	if njErr == nil {
		return mk(nj, njSchema, classNaturalCont), true
	}
	return combineResult{}, false
}

// joinKeysFor picks, per shared domain dimension, the representative column
// each join side aligns on — the NDV lookups behind informed join
// cardinality. Dimensions where either side lacks a domain column are
// skipped (the join cannot align on them anyway).
func joinKeysFor(a, b semantics.Schema, shared []string) []joinKey {
	var keys []joinKey
	for _, dim := range shared {
		la := a.ColumnsOnDimension(semantics.Domain, dim)
		lb := b.ColumnsOnDimension(semantics.Domain, dim)
		if len(la) == 0 || len(lb) == 0 {
			continue
		}
		keys = append(keys, joinKey{left: la[0], right: lb[0]})
	}
	return keys
}

// better orders candidate combinations within one pair of groups: the
// structural heuristic first (precision bucket, then fine preference), and
// only on full structural ties the estimated cost — restricted to natural
// joins, whose operand order cannot change the result multiset. Flipping an
// interpolation join flips which side keeps its rows, so the physical phase
// never touches it. Remaining ties keep the first candidate, preserving the
// historical deterministic order.
func (e *Engine) better(a, b combineResult) bool {
	if !b.ok {
		return a.ok
	}
	if a.bucket != b.bucket {
		return a.bucket > b.bucket
	}
	if a.fine != b.fine {
		return a.fine > b.fine
	}
	if a.class != classInterp && b.class != classInterp &&
		a.cost.Informed && b.cost.Informed {
		return a.cost.Total() < b.cost.Total()
	}
	return false
}

// combinePair finds the best combination between any variant of ga and any
// variant of gb, memoized by the dataset-name sets involved and the queried
// value dimensions.
func (e *Engine) combinePair(ga, gb *group, wanted map[string]bool, wantedKey string) *combineResult {
	memoKey := ga.key() + "|" + gb.key() + "|" + wantedKey
	if r, ok := e.pairMemo[memoKey]; ok {
		e.memoHits++
		return r
	}
	best := combineResult{}
	for _, va := range ga.variants {
		for _, vb := range gb.variants {
			if r, ok := e.tryCombine(va, vb, wanted); ok && e.better(r, best) {
				best = r
			}
			// Direction matters for interpolation joins (the left side is
			// the probe that keeps its rows); try the reverse too.
			if r, ok := e.tryCombine(vb, va, wanted); ok && e.better(r, best) {
				best = r
			}
		}
	}
	out := &best
	e.pairMemo[memoKey] = out
	return out
}

// satisfies reports whether a schema answers the query: every queried domain
// dimension appears as a domain, every queried value dimension as a value
// (with convertible units when units were requested).
func (e *Engine) satisfies(s semantics.Schema, q Query) bool {
	for _, d := range q.Domains {
		if !s.HasDomainDimension(d) {
			return false
		}
	}
	for _, v := range q.Values {
		cols := s.ColumnsOnDimension(semantics.Value, v.Dimension)
		if len(cols) == 0 {
			return false
		}
		if v.Units != "" {
			convertible := false
			for _, c := range cols {
				if s[c].Units == v.Units || e.dict.Units.Convertible(s[c].Units, v.Units) {
					convertible = true
					break
				}
			}
			if !convertible {
				return false
			}
		}
	}
	return true
}

// contributes reports whether any variant of the dataset carries one of the
// queried dimensions (as domain or value).
func (e *Engine) contributes(variants []variant, q Query) bool {
	for _, v := range variants {
		for _, d := range q.Domains {
			if v.schema.HasDomainDimension(d) {
				return true
			}
		}
		for _, qv := range q.Values {
			if v.schema.HasValueDimension(qv.Dimension) {
				return true
			}
		}
	}
	return false
}

// finalize picks the best satisfying variant and appends unit conversions
// requested by the query.
func (e *Engine) finalize(g *group, q Query) (*pipeline.Plan, error) {
	for _, v := range g.variants {
		if !e.satisfies(v.schema, q) {
			continue
		}
		node, schema := v.node, v.schema
		for _, qv := range q.Values {
			if qv.Units == "" {
				continue
			}
			cols := schema.ColumnsOnDimension(semantics.Value, qv.Dimension)
			col := ""
			for _, c := range cols {
				if schema[c].Units == qv.Units {
					col = ""
					break
				}
				if e.dict.Units.Convertible(schema[c].Units, qv.Units) && col == "" {
					col = c
				}
			}
			if col != "" {
				t := &derive.ConvertUnits{Column: col, To: qv.Units}
				ns, err := t.DeriveSchema(schema, e.dict)
				if err != nil {
					return nil, err
				}
				node = pipeline.TransformNode(t, node)
				schema = ns
			}
		}
		if e.est != nil {
			e.est.annotate(node)
		}
		return &pipeline.Plan{Root: node}, nil
	}
	return nil, fmt.Errorf("engine: combined result does not satisfy %s", q)
}

// Solve finds a derivation plan answering the query, or an error when no
// sequence of known derivations can relate the requested dimensions. ctx
// bounds the search: a cancellation or expired deadline aborts between
// closure expansions and combination rounds (serving-layer requests carry
// per-request deadlines all the way into the search).
func (e *Engine) Solve(ctx context.Context, q Query) (*pipeline.Plan, error) {
	return e.solve(ctx, q, nil)
}

// SolveTraced is Solve plus an explain trace of the search decisions.
func (e *Engine) SolveTraced(ctx context.Context, q Query) (*pipeline.Plan, *Trace, error) {
	tr := &Trace{}
	plan, err := e.solve(ctx, q, tr)
	return plan, tr, err
}

func (e *Engine) solve(ctx context.Context, q Query, tr *Trace) (*pipeline.Plan, error) {
	// Per-solve state: memo hits count this search only, and memo tables
	// built against an older statistics epoch are stale — learned facts
	// change candidate costs, so cached combination outcomes must re-rank.
	e.memoHits = 0
	if e.est != nil {
		if ep := e.opts.Stats.Epoch(); ep != e.lastEpoch {
			e.pairMemo = map[string]*combineResult{}
			e.est.reset()
			e.lastEpoch = ep
			tr.eventf("stats", "statistics epoch moved to %d: combination memo invalidated", ep)
		}
	}
	plan, err := e.solveInner(ctx, q, tr)
	if err == nil {
		tr.eventf("memo", "pairwise combination memo hits this solve: %d", e.memoHits)
	}
	return plan, err
}

func (e *Engine) solveInner(ctx context.Context, q Query, tr *Trace) (*pipeline.Plan, error) {
	if len(q.Domains) == 0 && len(q.Values) == 0 {
		return nil, fmt.Errorf("engine: empty query")
	}
	// Build the transformation closure of every catalog dataset.
	groups := make([]*group, 0, len(e.schemas))
	names := make([]string, 0, len(e.schemas))
	for n := range e.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		base := variant{node: pipeline.SourceNode(n), schema: e.schemas[n]}
		g := &group{names: []string{n}, variants: e.closure(base)}
		groups = append(groups, g)
		tr.eventf("closure", "closure of %q: %d reachable schema variants", n, len(g.variants))
	}

	// Derivations cannot invent domain dimensions: if a queried domain is
	// nowhere, there is no solution (§5.2).
	for _, d := range q.Domains {
		found := false
		for _, g := range groups {
			for _, v := range g.variants {
				if v.schema.HasDomainDimension(d) {
					found = true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("engine: no dataset carries queried domain dimension %q", d)
		}
	}

	// Restrict to datasets that can contribute a queried dimension — the
	// paper's DF set. The rest of the catalog stays available: Algorithm 1
	// extends DF one dataset at a time when DF alone cannot be combined
	// (bridging tables like a node/rack layout contribute no queried
	// dimension themselves but relate datasets that do).
	var df, rest []*group
	for _, g := range groups {
		if e.contributes(g.variants, q) {
			df = append(df, g)
		} else {
			rest = append(rest, g)
		}
	}
	// With informed statistics, try cheap bridging datasets first; without,
	// keep catalog order (the sort is stable and uninformed keys are equal).
	if e.est != nil {
		sort.SliceStable(rest, func(i, j int) bool {
			return e.bridgeCost(rest[i]) < e.bridgeCost(rest[j])
		})
	}
	if len(df) == 0 {
		return nil, fmt.Errorf("engine: no dataset contributes to %s", q)
	}
	dfNames := make([]string, len(df))
	for i, g := range df {
		dfNames[i] = g.key()
	}
	tr.eventf("df", "DF (datasets contributing queried dimensions): %s", strings.Join(dfNames, ", "))

	// A single dataset may already satisfy the query.
	for _, g := range df {
		if plan, err := e.finalize(g, q); err == nil {
			tr.eventf("solution", "single dataset %q satisfies the query", g.key())
			return plan, nil
		}
	}

	wanted := map[string]bool{}
	var wantedKeys []string
	for _, v := range q.Values {
		wanted[v.Dimension] = true
		wantedKeys = append(wantedKeys, v.Dimension)
	}
	sort.Strings(wantedKeys)
	wantedKey := strings.Join(wantedKeys, ",")

	// Try DF alone, then extend it one dataset at a time from D - DF, as
	// in Algorithm 1 (a bridging dataset like a node/rack layout may be
	// needed to relate the contributing datasets).
	var lastErr error
	for {
		plan, err := e.agglomerate(ctx, df, wanted, wantedKey, q, tr)
		if err == nil {
			return plan, nil
		}
		lastErr = err
		if len(rest) == 0 {
			tr.eventf("failure", "failed: %v", lastErr)
			return nil, lastErr
		}
		tr.eventf("extend", "DF insufficient (%v); extending with bridging dataset %q", err, rest[0].key())
		df = append(df, rest[0])
		rest = rest[1:]
	}
}

// bridgeCost keys the bridging-extension order: a bridging dataset's
// estimated source cost when informed, +Inf (order-preserving) otherwise.
// The base variant (step 0 of the closure) is the raw source.
func (e *Engine) bridgeCost(g *group) float64 {
	if len(g.variants) == 0 {
		return math.Inf(1)
	}
	c := e.est.cost(g.variants[0].node)
	if !c.Informed {
		return math.Inf(1)
	}
	return c.Total()
}

// pairBetter orders candidate pairs across the agglomeration frontier: the
// precision bucket first (the logical phase), then estimated cost when both
// estimates are informed (the physical phase). Ties keep the earlier pair
// in catalog order, so plans stay deterministic and, absent statistics,
// byte-identical to the historical heuristic.
func (e *Engine) pairBetter(a, b *combineResult) bool {
	if a.bucket != b.bucket {
		return a.bucket > b.bucket
	}
	if a.cost.Informed && b.cost.Informed {
		return a.cost.Total() < b.cost.Total()
	}
	return false
}

// agglomerate greedily combines the best pair of groups — highest
// precision, then cheapest by informed cost estimate — re-runs the
// transformation closure over each combined schema (joins can unlock new
// derivations, e.g. active frequency after joining CPU specs), and stops as
// soon as a combined group satisfies the query. Pair selection is
// strictly-better, so ties resolve to the earliest pair in catalog order,
// keeping plans deterministic.
func (e *Engine) agglomerate(ctx context.Context, initial []*group, wanted map[string]bool, wantedKey string, q Query, tr *Trace) (*pipeline.Plan, error) {
	work := append([]*group(nil), initial...)
	for len(work) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		bestI, bestJ := -1, -1
		var bestRes *combineResult
		for i := 0; i < len(work); i++ {
			for j := i + 1; j < len(work); j++ {
				res := e.combinePair(work[i], work[j], wanted, wantedKey)
				if res.ok && (bestRes == nil || e.pairBetter(res, bestRes)) {
					bestI, bestJ, bestRes = i, j, res
				}
			}
		}
		if bestRes == nil {
			return nil, fmt.Errorf("engine: datasets cannot be related: no combinable pair among %d groups", len(work))
		}
		if bestRes.cost.Informed {
			tr.eventf("cost", "picked pair {%s}+{%s}: estimated rows %.0f, cpu %.0f, shuffle %.0f B",
				work[bestI].key(), work[bestJ].key(),
				bestRes.cost.Rows, bestRes.cost.CPU, bestRes.cost.ShuffleBytes)
		}
		tr.eventf("combine", "combine {%s} with {%s} via %s -> domains [%s]",
			work[bestI].key(), work[bestJ].key(), className(bestRes.bucket),
			strings.Join(bestRes.variant.schema.DomainDimensions(), ","))
		merged := &group{
			names:    sortedUnion(work[bestI].names, work[bestJ].names),
			variants: e.closure(bestRes.variant),
		}
		var next []*group
		for k, g := range work {
			if k != bestI && k != bestJ {
				next = append(next, g)
			}
		}
		work = append(next, merged)
		if plan, err := e.finalize(merged, q); err == nil {
			tr.eventf("solution", "combined group {%s} satisfies the query", merged.key())
			return plan, nil
		}
	}
	return nil, fmt.Errorf("engine: no derivation sequence satisfies %s", q)
}

func sortedUnion(a, b []string) []string {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
