// Package pipeline implements ScrubJay's reproducible derivation sequences
// (§5.4 of the paper). A Plan is a tree of derivation steps over named
// source datasets; it serializes to compact, human-editable JSON containing
// everything needed to execute an identical processing run — the paper's
// answer to unshareable, unreproducible analysis scripts. Plans hash
// canonically, enabling the opt-in derivation-result cache.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/obs"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/wrappers"
)

// Node kinds.
const (
	KindSource    = "source"
	KindTransform = "transform"
	KindCombine   = "combine"
)

// Node is one step of a derivation sequence.
type Node struct {
	// Kind is source, transform, or combine.
	Kind string `json:"kind"`
	// Dataset names a catalog dataset (source nodes).
	Dataset string `json:"dataset,omitempty"`
	// Load reads the source from storage instead of the catalog
	// (source nodes; optional).
	Load *wrappers.Source `json:"load,omitempty"`
	// Derivation and Params identify the derivation (transform/combine).
	Derivation string         `json:"derivation,omitempty"`
	Params     map[string]any `json:"params,omitempty"`
	// Inputs are the child steps: one for transforms, two for combines.
	Inputs []*Node `json:"inputs,omitempty"`
	// Estimate is the planner's predicted cost for this step, annotated when
	// the engine runs with a statistics store. Advisory only: it is excluded
	// from the canonical hash (identical derivations cache-share regardless
	// of what the planner predicted) and execution never reads it.
	Estimate *StepEstimate `json:"estimate,omitempty"`
}

// StepEstimate is the planner's cost prediction for one plan step.
type StepEstimate struct {
	// Rows is the predicted output row count.
	Rows int64 `json:"rows"`
	// CPU is the predicted cumulative per-row work (arbitrary units ~ rows
	// processed across the subtree).
	CPU int64 `json:"cpu"`
	// ShuffleBytes is the predicted distributed-exchange volume.
	ShuffleBytes int64 `json:"shuffle_bytes,omitempty"`
	// Informed reports whether real statistics (rather than conservative
	// defaults) backed the prediction.
	Informed bool `json:"informed,omitempty"`
	// StatsInputs lists the statistics-store facts the prediction used
	// (e.g. "table:node_layout", "deriv:natural_join|...").
	StatsInputs []string `json:"stats_inputs,omitempty"`
}

// Plan is a complete derivation sequence.
type Plan struct {
	Root *Node `json:"root"`
}

// SourceNode builds a source step referencing a catalog dataset.
func SourceNode(name string) *Node { return &Node{Kind: KindSource, Dataset: name} }

// LoadNode builds a source step that loads from storage.
func LoadNode(src wrappers.Source) *Node {
	return &Node{Kind: KindSource, Load: &src, Dataset: src.Name}
}

// TransformNode wraps a child with a transformation.
func TransformNode(t derive.Transformation, in *Node) *Node {
	return &Node{Kind: KindTransform, Derivation: t.Name(), Params: t.Params(), Inputs: []*Node{in}}
}

// CombineNode joins two children with a combination.
func CombineNode(c derive.Combination, left, right *Node) *Node {
	return &Node{Kind: KindCombine, Derivation: c.Name(), Params: c.Params(), Inputs: []*Node{left, right}}
}

// Validate checks structural well-formedness.
func (n *Node) Validate() error {
	switch n.Kind {
	case KindSource:
		if n.Dataset == "" && n.Load == nil {
			return fmt.Errorf("pipeline: source node needs a dataset name or load spec")
		}
		if len(n.Inputs) != 0 {
			return fmt.Errorf("pipeline: source node must have no inputs")
		}
	case KindTransform:
		if n.Derivation == "" || len(n.Inputs) != 1 {
			return fmt.Errorf("pipeline: transform node needs a derivation and exactly one input")
		}
	case KindCombine:
		if n.Derivation == "" || len(n.Inputs) != 2 {
			return fmt.Errorf("pipeline: combine node needs a derivation and exactly two inputs")
		}
	default:
		return fmt.Errorf("pipeline: unknown node kind %q", n.Kind)
	}
	for _, in := range n.Inputs {
		if err := in.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// canonical renders a node as deterministic JSON-ish text for hashing.
// With srcs, a source step renders as the digest of the content it read.
func (n *Node) canonical(b *strings.Builder, srcs map[string]resolvedSource) {
	b.WriteByte('(')
	b.WriteString(n.Kind)
	b.WriteByte(':')
	if n.Kind == KindSource && srcs != nil {
		b.WriteString(srcs[n.Hash()].digest)
		b.WriteByte(')')
		return
	}
	if n.Dataset != "" {
		b.WriteString(n.Dataset)
	}
	if n.Load != nil {
		fmt.Fprintf(b, "load[%s %s %s]", n.Load.Format, n.Load.Path, n.Load.Table)
	}
	if n.Derivation != "" {
		b.WriteString(n.Derivation)
		keys := make([]string, 0, len(n.Params))
		for k := range n.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, ";%s=%v", k, n.Params[k])
		}
	}
	for _, in := range n.Inputs {
		in.canonical(b, srcs)
	}
	b.WriteByte(')')
}

// Hash returns a stable content hash of the subtree rooted at n: the
// plan's identity, which names sources by name only.
func (n *Node) Hash() string { return n.digest("", nil) }

// resultFormat prefixes every result-cache key, n.digest(resultFormat,
// srcs): the canonical form with each source replaced by the digest of what
// it read, so a source whose content changed (a served Replace, a catalog
// file edited in place) never serves an old result. Bump it whenever a
// derivation's output or the entry format (wrappers' bin) changes.
const resultFormat = "scrubjay-result-2"

func (n *Node) digest(prefix string, srcs map[string]resolvedSource) string {
	b := strings.Builder{}
	b.WriteString(prefix)
	n.canonical(&b, srcs)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// Hash returns the plan's content hash.
func (p *Plan) Hash() string { return p.Root.Hash() }

// MarshalJSON/Unmarshal use the natural struct encoding; provided as
// explicit helpers for CLI use.

// Encode renders the plan as indented JSON.
func (p *Plan) Encode() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// Decode parses a plan from JSON and validates it.
func Decode(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if p.Root == nil {
		return nil, fmt.Errorf("pipeline: plan has no root")
	}
	if err := p.Root.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// String renders the plan as an indented tree, bottom-up like the paper's
// Figure 5 (sources at the leaves, result at the root).
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		switch n.Kind {
		case KindSource:
			name := n.Dataset
			if name == "" && n.Load != nil {
				name = n.Load.Path
			}
			fmt.Fprintf(&b, "%ssource %s\n", indent, name)
		default:
			fmt.Fprintf(&b, "%s%s %s", indent, n.Kind, n.Derivation)
			if len(n.Params) > 0 {
				keys := make([]string, 0, len(n.Params))
				for k := range n.Params {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				b.WriteByte('(')
				for i, k := range keys {
					if i > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(&b, "%s=%v", k, n.Params[k])
				}
				b.WriteByte(')')
			}
			b.WriteByte('\n')
			for _, in := range n.Inputs {
				walk(in, depth+1)
			}
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// Steps lists the derivation names in execution (post) order — useful for
// asserting plan structure in tests and experiments.
func (p *Plan) Steps() []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, in := range n.Inputs {
			walk(in)
		}
		if n.Kind == KindSource {
			out = append(out, "source:"+n.Dataset)
		} else {
			out = append(out, n.Derivation)
		}
	}
	walk(p.Root)
	return out
}

// Catalog resolves source-node dataset names during execution.
type Catalog map[string]*dataset.Dataset

// ExecOptions configures plan execution.
type ExecOptions struct {
	// Cache, when non-nil, enables the derivation-result cache: every
	// non-source subtree is looked up by its result key (resultFormat)
	// before computing and stored after.
	Cache *cache.Cache
}

// Execute runs a plan against a catalog, reproducing the derivation
// sequence. ctx bounds the run: execution checks it between derivation
// steps, and when rc (or the catalog datasets' own rdd Context) is bound to
// the same Go context via rdd.Context.WithGoContext, a cancellation or
// deadline also aborts mid-derivation between partitions. A cancelled run
// returns an error wrapping ctx.Err().
func Execute(ctx context.Context, rc *rdd.Context, p *Plan, cat Catalog, dict *semantics.Dictionary, opts ExecOptions) (ds *dataset.Dataset, err error) {
	if err := p.Root.Validate(); err != nil {
		return nil, err
	}
	// Derivations abort deep inside rdd actions by panicking with
	// *rdd.Canceled (timeout/cancel) or *rdd.ExecFailure (a distributed
	// exchange died); surface those as ordinary errors here so callers
	// (the CLI, the serving layer) never see the panic.
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *rdd.Canceled:
				ds, err = nil, fmt.Errorf("pipeline: %w", e)
			case *rdd.ExecFailure:
				ds, err = nil, fmt.Errorf("pipeline: %w", e)
			default:
				panic(r)
			}
		}
	}()
	var srcs map[string]resolvedSource
	if opts.Cache != nil {
		srcs = map[string]resolvedSource{}
		if err := resolveSources(rc, p.Root, cat, srcs); err != nil {
			return nil, err
		}
	}
	return execNode(ctx, rc, p.Root, cat, dict, opts, srcs)
}

// resolvedSource is a source step a cached run read before executing: its
// frames, retained, and the digest of their bin encoding.
type resolvedSource struct {
	ds     *dataset.Dataset
	digest string
}

// resolveSources reads each distinct source step under n once into srcs,
// keyed by the step's Hash. Retaining the frames lets the run compute each
// source once although the digest reads it first.
func resolveSources(rc *rdd.Context, n *Node, cat Catalog, srcs map[string]resolvedSource) error {
	for _, in := range n.Inputs {
		if err := resolveSources(rc, in, cat, srcs); err != nil {
			return err
		}
	}
	if _, done := srcs[n.Hash()]; done || n.Kind != KindSource {
		return nil
	}
	ds, err := readSource(rc, n, cat)
	if err != nil {
		return err
	}
	frames, h := ds.Frames().Collect(), sha256.New()
	if err := wrappers.EncodeBin(h, ds.Schema(), frames); err != nil {
		return err
	}
	srcs[n.Hash()] = resolvedSource{
		ds:     dataset.FromFrames(ds.Context(), ds.Name(), frames, ds.Schema()),
		digest: hex.EncodeToString(h.Sum(nil)),
	}
	return nil
}

// readSource resolves a source step: its Load spec, else its catalog entry.
func readSource(rc *rdd.Context, n *Node, cat Catalog) (*dataset.Dataset, error) {
	if n.Load != nil {
		ds, err := wrappers.Read(rc, *n.Load)
		if err != nil {
			return nil, err
		}
		return ds.Columnar(), nil
	}
	ds, ok := cat[n.Dataset]
	if !ok {
		return nil, fmt.Errorf("pipeline: catalog has no dataset %q", n.Dataset)
	}
	return ds.Columnar(), nil
}

// execNode is the one place that picks the physical representation: every
// dataset it resolves — catalog entries, Load sources and cache hits — enters
// execution through Dataset.Columnar(), and the derivations preserve it, so
// a plan runs on the columnar kernels whoever built the catalog.
func execNode(ctx context.Context, rc *rdd.Context, n *Node, cat Catalog, dict *semantics.Dictionary, opts ExecOptions, srcs map[string]resolvedSource) (*dataset.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	var key string
	if n.Kind != KindSource && opts.Cache != nil {
		key = n.digest(resultFormat, srcs)
		if ds, ok := opts.Cache.Get(rc, key); ok {
			if sp := rc.Span(); sp != nil {
				step := sp.Child(obs.KindStep, n.Derivation)
				step.SetBool(obs.AttrCacheHit, true)
				step.End()
			}
			return ds.Columnar(), nil
		}
	}
	var out *dataset.Dataset
	switch n.Kind {
	case KindSource:
		if s, ok := srcs[n.Hash()]; ok {
			return s.ds, nil
		}
		return readSource(rc, n, cat)
	case KindTransform:
		in, err := execNode(ctx, rc, n.Inputs[0], cat, dict, opts, srcs)
		if err != nil {
			return nil, err
		}
		t, err := derive.NewTransformation(n.Derivation, n.Params)
		if err != nil {
			return nil, err
		}
		out, err = applyStep(rc, n, func() (*dataset.Dataset, error) {
			return t.Apply(in, dict)
		})
		if err != nil {
			return nil, err
		}
	case KindCombine:
		left, err := execNode(ctx, rc, n.Inputs[0], cat, dict, opts, srcs)
		if err != nil {
			return nil, err
		}
		right, err := execNode(ctx, rc, n.Inputs[1], cat, dict, opts, srcs)
		if err != nil {
			return nil, err
		}
		c, err := derive.NewCombination(n.Derivation, n.Params)
		if err != nil {
			return nil, err
		}
		out, err = applyStep(rc, n, func() (*dataset.Dataset, error) {
			return c.Apply(left, right, dict)
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("pipeline: unknown node kind %q", n.Kind)
	}
	if opts.Cache != nil {
		// The cache write materializes out's frames once and retains them,
		// so the parent reads them instead of computing the subtree again.
		out = out.Columnar().Cache()
		if err := opts.Cache.Put(key, out); err != nil {
			return nil, fmt.Errorf("pipeline: caching %s: %w", key, err)
		}
	}
	return out, nil
}

// applyStep runs one derivation under a step span: the rdd Context is
// re-scoped to the step so the derivation's stages nest beneath it, and
// restored afterwards (also on *rdd.Canceled panics, via defer). Untraced
// contexts take the nil-span fast path — no span, no allocation. Planner
// estimates annotated on the node are stamped onto the span so traces carry
// predicted next to actual cost.
func applyStep(rc *rdd.Context, n *Node, apply func() (*dataset.Dataset, error)) (*dataset.Dataset, error) {
	save := rc.Span()
	step := save.Child(obs.KindStep, n.Derivation)
	if est := n.Estimate; est != nil && step != nil {
		step.SetInt(obs.AttrEstRows, est.Rows)
		step.SetInt(obs.AttrEstCPU, est.CPU)
		if est.ShuffleBytes > 0 {
			step.SetInt(obs.AttrEstShuffleBytes, est.ShuffleBytes)
		}
	}
	rc.SetSpan(step)
	defer func() {
		rc.SetSpan(save)
		step.End()
	}()
	out, err := apply()
	if err != nil {
		step.SetStr(obs.AttrError, err.Error())
	}
	return out, err
}

// DeriveSchema computes the schema a plan will produce, given the catalog's
// schemas, without touching data — mirroring the engine's semantics-only
// reasoning.
func (p *Plan) DeriveSchema(schemas map[string]semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	return deriveNodeSchema(p.Root, schemas, dict)
}

func deriveNodeSchema(n *Node, schemas map[string]semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	switch n.Kind {
	case KindSource:
		s, ok := schemas[n.Dataset]
		if !ok {
			return nil, fmt.Errorf("pipeline: no schema for source %q", n.Dataset)
		}
		return s, nil
	case KindTransform:
		in, err := deriveNodeSchema(n.Inputs[0], schemas, dict)
		if err != nil {
			return nil, err
		}
		t, err := derive.NewTransformation(n.Derivation, n.Params)
		if err != nil {
			return nil, err
		}
		return t.DeriveSchema(in, dict)
	case KindCombine:
		l, err := deriveNodeSchema(n.Inputs[0], schemas, dict)
		if err != nil {
			return nil, err
		}
		r, err := deriveNodeSchema(n.Inputs[1], schemas, dict)
		if err != nil {
			return nil, err
		}
		c, err := derive.NewCombination(n.Derivation, n.Params)
		if err != nil {
			return nil, err
		}
		return c.DeriveSchema(l, r, dict)
	default:
		return nil, fmt.Errorf("pipeline: unknown node kind %q", n.Kind)
	}
}
