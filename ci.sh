#!/usr/bin/env sh
# ci.sh — the tier-1+ verification gate for this repository.
#
# Tier 1 (ROADMAP.md) is build + tests. This gate extends it with the
# checks that protect the paper's §5.3/§5.4 guarantees:
#   * go vet           — stock static analysis
#   * go test -race    — every test runs under the race detector,
#                        module-wide, uncached (-count=1) so a stale ok
#                        cannot hide a flake. This is the purity check: a
#                        compute closure that writes captured state races
#                        across partitions. In this build
#                        TestRealTreeWitnesses also runs the test rows of
#                        the mutation table (each mutation overlaid on the
#                        tree, its named test must fail). Then the same for
#                        the nested benchmark/ module (its TestSmoke runs
#                        every BENCHMARK.json workload at tiny scale and
#                        checks the output bytes)
#   * fuzz             — 10 s each of differential fuzzing of the columnar
#                        kernels against their row-form references: the
#                        interpolation join (FuzzInterpolationJoin), the
#                        group kernel under aggregate and derive_heat
#                        (FuzzGroupAggregate), the natural join
#                        (FuzzNaturalJoin, also against the nested-loop
#                        reference) and derive_rate with both explodes
#                        (FuzzRateExplode: NDJSON equal byte for byte);
#                        10 s of the value binary
#                        codec (FuzzValueBinary: decode, re-encode, JSON
#                        round trip); 10 s of the frame wire decoder
#                        (FuzzDecodeFrame: arbitrary bytes decode to an
#                        error or a frame with distinct column names whose
#                        re-encoding decodes to the same cells and
#                        re-encodes to the same bytes); 10 s of dictionary
#                        string columns against plain ones (FuzzDictColumns:
#                        equal cells, hashes, key equality, NDJSON and wire
#                        bytes through Gather, ConcatGather and Merge); 10 s
#                        of indexed concatenation (FuzzConcatGather:
#                        ConcatGather with an index equal to concatenating,
#                        then gathering, in kinds, dictionaries, presence
#                        bitmaps, cells, NDJSON and wire bytes); and
#                        10 s of pipelined puts
#                        against a live shuffle worker (FuzzPipelinedPuts:
#                        one burst of arbitrary puts, every fetch equal to
#                        the last-write-wins (src, seq) merge); their seed
#                        corpora already run with the ordinary tests
#   * gofmt            — formatting gate (testdata fixtures excluded: the
#                        loader-edge fixture deliberately contains a
#                        vendored file that is not valid Go)
#   * analyzers        — the internal/lint suite (determinism,
#                        lockdiscipline, ctxflow, and the flow-sensitive
#                        pair errflow/leakcheck; see DESIGN.md
#                        "Enforced invariants") as TestSelfClean, one pass
#                        over library code AND tests with no baseline (any
#                        finding fails), within a 30 s budget
#   * examples         — every examples/* program built and run; any
#                        nonzero exit fails (each log.Fatals on error, and
#                        reproducible exits 1 when a replay differs), and
#                        so does stdout other than the program's
#                        examples/<name>/expected.txt (temp path masked)
#   * smoke            — the one scrubjay binary end to end: serve + load
#                        for the correctness burst,
#                        served CSV byte-identical to the local CLI's (cold
#                        and as a result-cache hit), the cache directory
#                        holding whole entries only, the local CLI through
#                        its own result cache (cold and as a hit) writing
#                        the uncached bytes, admission control,
#                        graceful drain, then the
#                        observability surface (traced query artifact,
#                        GET /v1/trace/{id}, /metrics, pprof isolation),
#                        then the distributed smoke: 2 worker processes,
#                        a driver query whose shuffles cross TCP must match
#                        the local run byte-for-byte, including with one
#                        worker SIGKILLed mid-query at an exchange barrier,
#                        and a traced run must graft worker-origin spans
#                        into one coherent cross-process trace
#
# Any nonzero exit fails the gate.
set -eu

echo "==> gofmt (excluding testdata)"
UNFORMATTED=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' | xargs gofmt -l)
if [ -n "$UNFORMATTED" ]; then
  echo "ci.sh: gofmt needed on:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "==> (cd benchmark && go test -race -count=1 ./...)"
(cd benchmark && go test -race -count=1 ./...)

echo "==> go test -run='^\$' -fuzz=FuzzInterpolationJoin -fuzztime=10s ./internal/derive"
go test -run='^$' -fuzz=FuzzInterpolationJoin -fuzztime=10s ./internal/derive

echo "==> go test -run='^\$' -fuzz=FuzzGroupAggregate -fuzztime=10s ./internal/derive"
go test -run='^$' -fuzz=FuzzGroupAggregate -fuzztime=10s ./internal/derive

echo "==> go test -run='^\$' -fuzz=FuzzNaturalJoin -fuzztime=10s ./internal/derive"
go test -run='^$' -fuzz=FuzzNaturalJoin -fuzztime=10s ./internal/derive

echo "==> go test -run='^\$' -fuzz=FuzzRateExplode -fuzztime=10s ./internal/derive"
go test -run='^$' -fuzz=FuzzRateExplode -fuzztime=10s ./internal/derive

# FuzzValueBinary: arbitrary bytes through the value decoder; whatever
# decodes must re-encode, re-decode and JSON round-trip unchanged. Its
# interesting inputs are cheap but many, so minimization is capped at 1 s
# like the shuffle fuzzer's below.
echo "==> go test -run='^\$' -fuzz=FuzzValueBinary -fuzztime=10s -fuzzminimizetime=1s ./internal/value"
go test -run='^$' -fuzz=FuzzValueBinary -fuzztime=10s -fuzzminimizetime=1s ./internal/value

# FuzzDecodeFrame: arbitrary bytes through the frame wire decoder, the
# entry point for every payload a worker sends. Minimization is capped at
# 1 s for the same reason as FuzzValueBinary's.
echo "==> go test -run='^\$' -fuzz=FuzzDecodeFrame -fuzztime=10s -fuzzminimizetime=1s ./internal/shuffle"
go test -run='^$' -fuzz=FuzzDecodeFrame -fuzztime=10s -fuzzminimizetime=1s ./internal/shuffle

# FuzzDictColumns: one random string column built dictionary-encoded and
# plain must stay indistinguishable through every frame kernel and the
# codec. Minimization is capped at 1 s like the other decoder stages'.
echo "==> go test -run='^\$' -fuzz=FuzzDictColumns -fuzztime=10s -fuzzminimizetime=1s ./internal/frame"
go test -run='^$' -fuzz=FuzzDictColumns -fuzztime=10s -fuzzminimizetime=1s ./internal/frame

# FuzzConcatGather: the keyed kernels gather their output rows straight
# from an exchange's pieces, so ConcatGather with an index must equal the
# concatenation it skips, gathered, in representation as well as cells.
echo "==> go test -run='^\$' -fuzz=FuzzConcatGather -fuzztime=10s -fuzzminimizetime=1s ./internal/frame"
go test -run='^$' -fuzz=FuzzConcatGather -fuzztime=10s -fuzzminimizetime=1s ./internal/frame

# Each FuzzPipelinedPuts input costs a few loopback round trips, so the
# default 60 s minimization of every new interesting input would eat the
# whole budget; 1 s keeps the 10 s spent mostly on new inputs.
echo "==> go test -run='^\$' -fuzz=FuzzPipelinedPuts -fuzztime=10s -fuzzminimizetime=1s ./internal/shuffle"
go test -run='^$' -fuzz=FuzzPipelinedPuts -fuzztime=10s -fuzzminimizetime=1s ./internal/shuffle

# The analyzer suite runs once over library code and tests, as
# TestSelfClean: any finding fails. Wall-clock budget: the pass must stay
# fast enough to sit in every CI run, so anything over 30s fails the gate.
echo "==> go test -count=1 -run '^TestSelfClean\$' ./internal/lint"
LINT_T0=$(date +%s)
go test -count=1 -run '^TestSelfClean$' ./internal/lint
LINT_T1=$(date +%s)
LINT_ELAPSED=$((LINT_T1 - LINT_T0))
echo "    analyzer wall-clock: ${LINT_ELAPSED}s (budget 30s)"
if [ "$LINT_ELAPSED" -gt 30 ]; then
  echo "ci.sh: the analyzer suite exceeded its 30s wall-clock budget (${LINT_ELAPSED}s)" >&2
  exit 1
fi

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

# Examples: the worked case studies run end to end, not just compile.
echo "==> examples"
go build -o "$SMOKE/ex/" ./examples/...
for EX in "$SMOKE"/ex/*; do
  NAME=$(basename "$EX")
  echo "  -> $NAME"
  "$EX" >"$SMOKE/ex.out" 2>"$SMOKE/ex.log" \
    || { echo "ci.sh: example $NAME failed" >&2; cat "$SMOKE/ex.out" "$SMOKE/ex.log" >&2; exit 1; }
  # The printed output is part of the contract: it must equal the
  # checked-in expected.txt, with reproducible's temp directory masked.
  sed 's#[^ ]*/scrubjay-repro[0-9]*#<tmp>#g' "$SMOKE/ex.out" | diff -u "examples/$NAME/expected.txt" - \
    || { echo "ci.sh: example $NAME printed other output than examples/$NAME/expected.txt" >&2; exit 1; }
done

# Server smoke: boot scrubjay serve on a random port over a generated catalog,
# then prove the three serving guarantees end to end:
#   1. correctness + plan cache: a plan-only burst shows cold search vs
#      cached hits; the query served twice — cold, then answered from the
#      result cache — writes a CSV byte-identical to the local CLI's (both
#      processes keep their default GOMAXPROCS workers: row order depends
#      on the worker count); a concurrent scrubjay load burst completes
#      with zero drops; after the drain the cache directory holds *.bin
#      entries only, and the local CLI run twice through its own cache
#      writes the uncached CSV both times;
#   2. admission control: an oversized burst against a 1-slot/no-queue
#      server is shed with 429s (scrubjay load -expect-rejections);
#   3. graceful shutdown: SIGTERM while a burst is in flight — the daemon
#      must exit 0 with every accepted stream finished (scrubjay load
#      exits 1 on any dropped in-flight query).
echo "==> server smoke (scrubjay serve + load)"
go build -o "$SMOKE" ./cmd/scrubjay
"$SMOKE/scrubjay" gen -out "$SMOKE/cat" -dat 1 -format jsonl \
  -racks 4 -nodes-per-rack 6 -amg-rack 2 -duration 1200 -seed 1 >/dev/null

wait_addr() {
  i=0
  while [ ! -f "$1" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "ci.sh: $1 was never written" >&2; exit 1; }
    sleep 0.1
  done
  cat "$1"
}

QUERY_ARGS="-domains job,rack -values application,temperature_difference"

echo "  -> correctness burst + plan-cache demonstration + served vs local bytes"
"$SMOKE/scrubjay" query -catalog "$SMOKE/cat" $QUERY_ARGS \
  -out "csv:$SMOKE/fig5-local.csv" >/dev/null
"$SMOKE/scrubjay" serve -catalog "$SMOKE/cat" -addr 127.0.0.1:0 \
  -addr-file "$SMOKE/addr1" -cache "$SMOKE/cache" \
  -max-concurrent 2 -max-queue 32 2>"$SMOKE/served1.log" &
SRV=$!
ADDR=$(wait_addr "$SMOKE/addr1")
# Plan-only burst first, against a cold plan cache: request 0 pays the CSP
# search, requests 1..5 hit the cache — the driver's "plan search:" line is
# the cold-vs-warm comparison. Then the served-vs-local byte check, before
# any execution has filled the result cache, then the mixed concurrent burst.
"$SMOKE/scrubjay" load -server "http://$ADDR" -clients 1 -requests 6 -plan-every 1 $QUERY_ARGS
for RUN in cold cached; do
  "$SMOKE/scrubjay" query -server "http://$ADDR" $QUERY_ARGS \
    -out "csv:$SMOKE/fig5-served-$RUN.csv" >/dev/null
  cmp "$SMOKE/fig5-local.csv" "$SMOKE/fig5-served-$RUN.csv" \
    || { echo "ci.sh: served result ($RUN) differs from local" >&2; exit 1; }
done
"$SMOKE/scrubjay" load -server "http://$ADDR" -clients 4 -requests 6 $QUERY_ARGS
kill -TERM "$SRV"
wait "$SRV"
# The result cache's directory is its own index: whole <key>.bin entries,
# no staged temp file and no index file.
ls "$SMOKE"/cache/*.bin >/dev/null 2>&1 \
  || { echo "ci.sh: the served queries cached nothing" >&2; exit 1; }
for F in "$SMOKE"/cache/*.tmp "$SMOKE/cache/index.json"; do
  if [ -e "$F" ]; then echo "ci.sh: unexpected $F in the result cache" >&2; exit 1; fi
done
echo "  -> local query through a result cache, cold then as a hit"
for RUN in cold cached; do
  "$SMOKE/scrubjay" query -catalog "$SMOKE/cat" -cache "$SMOKE/local-cache" $QUERY_ARGS \
    -out "csv:$SMOKE/fig5-local-$RUN.csv" >/dev/null
  cmp "$SMOKE/fig5-local.csv" "$SMOKE/fig5-local-$RUN.csv" \
    || { echo "ci.sh: local result through the cache ($RUN) differs from uncached" >&2; exit 1; }
done

echo "  -> overload burst must be shed with 429/503"
rm -f "$SMOKE/addr2"
"$SMOKE/scrubjay" serve -catalog "$SMOKE/cat" -addr 127.0.0.1:0 \
  -addr-file "$SMOKE/addr2" -max-concurrent 1 -max-queue -1 \
  2>"$SMOKE/served2.log" &
SRV=$!
ADDR=$(wait_addr "$SMOKE/addr2")
"$SMOKE/scrubjay" load -server "http://$ADDR" -clients 16 -requests 3 \
  -plan-every 0 -expect-rejections $QUERY_ARGS
kill -TERM "$SRV"
wait "$SRV"

echo "  -> graceful shutdown under load: zero dropped in-flight queries"
rm -f "$SMOKE/addr3"
"$SMOKE/scrubjay" serve -catalog "$SMOKE/cat" -addr 127.0.0.1:0 \
  -addr-file "$SMOKE/addr3" -max-concurrent 2 -max-queue 64 \
  2>"$SMOKE/served3.log" &
SRV=$!
ADDR=$(wait_addr "$SMOKE/addr3")
"$SMOKE/scrubjay" load -server "http://$ADDR" -clients 6 -requests 60 \
  -plan-every 0 $QUERY_ARGS >"$SMOKE/shutdown-load.log" 2>&1 &
LOAD=$!
sleep 1
kill -TERM "$SRV"
wait "$SRV" || { echo "ci.sh: scrubjay serve did not drain cleanly" >&2; cat "$SMOKE/served3.log" >&2; exit 1; }
wait "$LOAD" || { echo "ci.sh: scrubjay load saw dropped queries" >&2; cat "$SMOKE/shutdown-load.log" >&2; exit 1; }
grep -E "^(completed|dropped):" "$SMOKE/shutdown-load.log" | sed 's/^/     /'

# Observability smoke: the full trace story end to end.
#   1. local: a traced query writes a JSON artifact that validates
#      (scrubjay trace -check) and renders as a timeline;
#   2. served: a query's X-Scrubjay-Trace id resolves via GET /v1/trace/{id}
#      and renders through the same CLI;
#   3. /metrics re-renders from the obs registry (spot-check keys);
#   4. the pprof surface answers on its own -debug-addr listener only.
echo "  -> observability: traced local query + artifact check"
"$SMOKE/scrubjay" query -catalog "$SMOKE/cat" \
  -domains job,rack -values application,temperature_difference \
  -trace "$SMOKE/local.trace.json" >/dev/null
"$SMOKE/scrubjay" trace -check "$SMOKE/local.trace.json"
"$SMOKE/scrubjay" trace "$SMOKE/local.trace.json" | head -5 | sed 's/^/     /'

echo "  -> observability: served trace, /metrics, pprof"
rm -f "$SMOKE/addr4" "$SMOKE/debug4"
"$SMOKE/scrubjay" serve -catalog "$SMOKE/cat" -addr 127.0.0.1:0 \
  -addr-file "$SMOKE/addr4" -debug-addr 127.0.0.1:0 \
  -debug-addr-file "$SMOKE/debug4" 2>"$SMOKE/served4.log" &
SRV=$!
ADDR=$(wait_addr "$SMOKE/addr4")
DEBUG_ADDR=$(wait_addr "$SMOKE/debug4")
"$SMOKE/scrubjay" load -server "http://$ADDR" -clients 1 -requests 2 -plan-every 0 \
  $QUERY_ARGS >/dev/null
TRACE_ID=$(curl -sf "http://$ADDR/v1/trace" | tr ',"' '\n\n' | grep '^t[0-9a-f]*$' | head -1)
[ -n "$TRACE_ID" ] || { echo "ci.sh: server listed no traces" >&2; exit 1; }
"$SMOKE/scrubjay" trace "$TRACE_ID" -server "http://$ADDR" | head -5 | sed 's/^/     /'
curl -sf "http://$ADDR/metrics" | grep -q '^latency_p99_micros=' \
  || { echo "ci.sh: /metrics missing latency quantiles" >&2; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^queries_total=' \
  || { echo "ci.sh: /metrics missing counters" >&2; exit 1; }
curl -sf "http://$DEBUG_ADDR/debug/pprof/" >/dev/null \
  || { echo "ci.sh: pprof index unreachable on debug listener" >&2; exit 1; }
if curl -sf "http://$ADDR/debug/pprof/" >/dev/null 2>&1; then
  echo "ci.sh: pprof leaked onto the query port" >&2; exit 1
fi
kill -TERM "$SRV"
wait "$SRV"

# Distributed smoke: real scrubjay worker processes. The same query runs three
# ways — local (the CSV from the correctness burst), through the 2-worker
# cluster, and through the cluster with worker 2 SIGKILLed mid-query (the
# driver's fault hook fires at the first exchange's push/fetch barrier, so
# map outputs are already on the dead worker and the fetch must discover
# the death, re-push to the survivor, and retry). All three CSVs must be
# byte-identical.
echo "  -> distributed shuffle: 2 workers, bit-for-bit vs local, mid-query worker kill"
"$SMOKE/scrubjay" worker -addr 127.0.0.1:0 -addr-file "$SMOKE/w1.addr" 2>"$SMOKE/w1.log" &
W1=$!
"$SMOKE/scrubjay" worker -addr 127.0.0.1:0 -addr-file "$SMOKE/w2.addr" 2>"$SMOKE/w2.log" &
W2=$!
W1ADDR=$(wait_addr "$SMOKE/w1.addr")
W2ADDR=$(wait_addr "$SMOKE/w2.addr")
"$SMOKE/scrubjay" query -catalog "$SMOKE/cat" $QUERY_ARGS \
  -shuffle-workers "$W1ADDR,$W2ADDR" -out "csv:$SMOKE/fig5-dist.csv" >/dev/null
cmp "$SMOKE/fig5-local.csv" "$SMOKE/fig5-dist.csv" \
  || { echo "ci.sh: distributed result differs from local" >&2; exit 1; }

# Distributed tracing smoke: the same query traced — the artifact must
# contain worker-origin spans grafted from both live workers, and the
# timeline must render their origin columns and per-worker rollups.
echo "  -> distributed tracing: worker-origin spans in one coherent trace"
"$SMOKE/scrubjay" query -catalog "$SMOKE/cat" $QUERY_ARGS \
  -shuffle-workers "$W1ADDR,$W2ADDR" -trace "$SMOKE/dist.trace.json" >/dev/null
"$SMOKE/scrubjay" trace -check "$SMOKE/dist.trace.json"
"$SMOKE/scrubjay" trace "$SMOKE/dist.trace.json" | grep -q 'origin=worker@' \
  || { echo "ci.sh: distributed trace has no worker-origin spans" >&2; exit 1; }
"$SMOKE/scrubjay" trace "$SMOKE/dist.trace.json" | grep -q '↳ worker@' \
  || { echo "ci.sh: distributed trace has no per-worker rollups" >&2; exit 1; }
SCRUBJAY_FAULT_KILL_PID=$W2 "$SMOKE/scrubjay" query -catalog "$SMOKE/cat" $QUERY_ARGS \
  -shuffle-workers "$W1ADDR,$W2ADDR" -out "csv:$SMOKE/fig5-killed.csv" >/dev/null
if kill -0 "$W2" 2>/dev/null; then
  echo "ci.sh: fault injection never fired (worker 2 still alive)" >&2; exit 1
fi
cmp "$SMOKE/fig5-local.csv" "$SMOKE/fig5-killed.csv" \
  || { echo "ci.sh: result after mid-query worker death differs from local" >&2; exit 1; }
kill "$W1" 2>/dev/null || true
wait "$W1" 2>/dev/null || true
wait "$W2" 2>/dev/null || true

echo "ci.sh: all gates passed"
