package server

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the profiling surface: the standard net/http/pprof
// endpoints under /debug/pprof/. It is deliberately a separate handler from
// Handler() so Daemon.Run mounts it on its own listener (scrubjay serve
// -debug-addr) — profiling never shares a port with the query API, and an
// unset debug address exposes nothing.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
