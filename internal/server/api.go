// Package server implements scrubjay serve, ScrubJay's concurrent
// query-serving daemon (Daemon.Run is its lifecycle). It wraps the derivation engine (§5 of the paper) behind a small
// HTTP API so that many analysts share one loaded catalog, one plan cache,
// and one derivation-result cache:
//
//	POST /v1/query             engine search + (optional) execution, rows
//	                           streamed as JSON lines
//	POST /v1/plan              engine search only; returns the serialized
//	                           derivation sequence (§5.4)
//	POST /v1/execute           run a stored plan against the live catalog
//	GET  /v1/catalog           list registered datasets
//	POST /v1/catalog/datasets  register/replace a dataset (hot reload)
//	GET  /v1/trace             retained trace ids, newest first
//	GET  /v1/trace/{id}        the JSON trace artifact for a recent query
//	GET  /healthz              liveness (503 while draining)
//	GET  /metrics              text key=value counters and latency quantiles
//
// Three mechanisms make it safe under heavy traffic: a query-hash-keyed
// plan cache in front of the CSP search, admission control (a bounded
// executor with a bounded wait queue — overload answers 429/503 with
// Retry-After instead of stacking goroutines), and per-request deadlines
// threaded as context.Context through the engine, pipeline execution, and
// the rdd worker pool, so an abandoned query stops burning cores.
package server

import (
	"encoding/json"

	"scrubjay/internal/engine"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
	"scrubjay/internal/wrappers"
)

// QueryRequest is the body of POST /v1/query (and, with execution forced
// off, POST /v1/plan). The embedded engine.Query contributes the domains
// and values fields.
type QueryRequest struct {
	engine.Query
	// WindowSeconds overrides the server's interpolation-join window.
	WindowSeconds float64 `json:"window_seconds,omitempty"`
	// Execute defaults to true on /v1/query; set false to stop after plan
	// search (equivalent to /v1/plan).
	Execute *bool `json:"execute,omitempty"`
	// Limit caps the number of streamed rows (0 = all).
	Limit int `json:"limit,omitempty"`
	// TimeoutMillis bounds the request; 0 uses the server default. The
	// server clamps it to its configured maximum.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
}

// ExecuteRequest is the body of POST /v1/execute: a stored derivation
// sequence to reproduce against the live catalog.
type ExecuteRequest struct {
	Plan          json.RawMessage `json:"plan"`
	Limit         int             `json:"limit,omitempty"`
	TimeoutMillis int64           `json:"timeout_millis,omitempty"`
}

// PlanResponse answers /v1/plan (and /v1/query with execute=false).
type PlanResponse struct {
	PlanHash string `json:"plan_hash"`
	// CacheHit reports whether the plan came from the plan cache rather
	// than a fresh CSP search.
	CacheHit bool `json:"cache_hit"`
	// SearchMicros is the cost of the search that produced the plan (the
	// original search when CacheHit).
	SearchMicros   int64 `json:"search_micros"`
	CatalogVersion int64 `json:"catalog_version"`
	// StatsEpoch is the statistics-store epoch the plan was costed
	// against; 0 when the server runs without cost-based planning. Plan
	// step estimates (rows, cpu, shuffle bytes, stats inputs) appear
	// inline in Plan when a statistics store is attached.
	StatsEpoch int64           `json:"stats_epoch,omitempty"`
	Steps      []string        `json:"steps"`
	Plan       json.RawMessage `json:"plan"`
}

// StreamHeader is the first JSON line of a row stream.
type StreamHeader struct {
	PlanHash       string           `json:"plan_hash"`
	CacheHit       bool             `json:"cache_hit"`
	SearchMicros   int64            `json:"search_micros"`
	CatalogVersion int64            `json:"catalog_version"`
	Steps          []string         `json:"steps"`
	Schema         semantics.Schema `json:"schema"`
	// TraceID names the query's trace artifact (GET /v1/trace/{id}); empty
	// when the server runs with tracing disabled.
	TraceID string `json:"trace_id,omitempty"`
}

// StreamTrailer is the last JSON line of a row stream. A stream without a
// trailer was cut off (client judges it dropped).
type StreamTrailer struct {
	Rows          int64  `json:"rows"`
	Truncated     bool   `json:"truncated,omitempty"`
	ElapsedMicros int64  `json:"elapsed_micros"`
	Error         string `json:"error,omitempty"`
}

// StreamLine is the client-side decoding union for one line of a row
// stream: exactly one field is set.
type StreamLine struct {
	Header  *StreamHeader  `json:"header,omitempty"`
	Row     value.Row      `json:"row,omitempty"`
	Trailer *StreamTrailer `json:"trailer,omitempty"`
}

// RegisterRequest is the body of POST /v1/catalog/datasets. Either Rows
// (with Schema) carries the dataset inline, or Source names server-visible
// storage to load it from.
type RegisterRequest struct {
	Name   string           `json:"name"`
	Schema semantics.Schema `json:"schema,omitempty"`
	Rows   []value.Row      `json:"rows,omitempty"`
	Source *wrappers.Source `json:"source,omitempty"`
	// Partitions sets the dataset's partition count (0 = server default).
	Partitions int `json:"partitions,omitempty"`
	// Replace allows overwriting an existing dataset of the same name.
	Replace bool `json:"replace,omitempty"`
}

// DatasetInfo describes one registered dataset in GET /v1/catalog.
type DatasetInfo struct {
	Name       string           `json:"name"`
	Rows       int64            `json:"rows"`
	Partitions int              `json:"partitions"`
	Schema     semantics.Schema `json:"schema"`
}

// CatalogResponse answers GET /v1/catalog.
type CatalogResponse struct {
	Version  int64         `json:"version"`
	Datasets []DatasetInfo `json:"datasets"`
}

// TraceListResponse answers GET /v1/trace.
type TraceListResponse struct {
	TraceIDs []string `json:"trace_ids"`
}

// ErrorResponse is the body of every non-2xx JSON answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
