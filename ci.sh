#!/bin/sh
# CI gate: vet, gofmt, build, and the full test suite under the race detector.
# The observability layer (internal/obs) is exercised concurrently from
# analyses, validation, and the code generators, so -race is load-bearing.
set -eux
# The CLI binary lives in a private directory, so two CI runs on one host
# never overwrite each other's binary; the EXIT trap removes it and stops
# the serve-smoke server if a stage fails while that server runs.
CI_TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$CI_TMP"
}
trap cleanup EXIT
EXTRA="$CI_TMP/extra"
go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test -race ./...

# Benchmark stage: perfbench/ is its own module (replace extra => ../), so
# the root ./... never compiles it; vet and test it here so an internal API
# change cannot break the benchmark while CI stays green.
(cd perfbench && go vet ./... && go test ./...)

# normalize FILE: the wall-clock duration and the per-run trace ID are the
# only legitimate deltas between two runs' reports. ": *" matches both the
# indented JSON reports and the compact JSONL journals.
normalize() {
  sed 's/"duration_ms": *[0-9]*/"duration_ms": 0/; s/"trace": *"[^"]*"/"trace": ""/' "$1"
}

# joined ERR EVENTS REPORT: a run joins its rows to its events. The trace
# ID the run announced on stderr ERR ("NAME: run trace ID") is on every
# line of the non-empty JSONL event file EVENTS and on the report REPORT.
joined() {
  ID=$(sed -n 's/^[a-z]*: run trace //p' "$1")
  test -n "$ID"
  test -s "$2"
  if grep -vq "\"trace\":\"$ID\"" "$2"; then exit 1; fi
  grep -q "\"trace\": *\"$ID\"" "$3"
}

# metric PATTERN UNIT FILE: the sum of UNIT over the `go test -bench` result
# rows in FILE whose name matches PATTERN (for a single row, that row's
# value). It fails when no row matches, which stops ci.sh.
metric() {
  awk -v pat="$1" -v unit="$2" '
    $1 ~ pat { for (i = 3; i < NF; i++) if ($(i + 1) == unit) { sum += $i; n++ } }
    END { if (n == 0) exit 1; printf "%.0f\n", sum }' "$3"
}

# Chaos stage: the chaos suite drives faulty real inputs (a bad cursor
# path, a variant that never stops, damaged binding documents and
# descriptions, cancelled contexts, a corrupt binding in the code generator,
# a request flood) through the pipeline; each must degrade cleanly under
# -race.
go test -race -run 'Chaos' ./internal/fault

# Fuzz smoke: a short budget per native fuzz target catches front-end and
# loader panics before they land. One -fuzz target per invocation; -run
# pins the seed-corpus execution to the same target. -fuzzminimizetime
# bounds the minimization of each new interesting input (60 s by default,
# with no executions counted meanwhile), so the budget goes to fuzzing; a
# failing input still fails the stage.
go test -run '^FuzzParse$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 100x ./internal/isps
go test -run '^FuzzParseStmt$' -fuzz '^FuzzParseStmt$' -fuzztime 10s -fuzzminimizetime 100x ./internal/isps
# isps.Equal compares digests; the structural oracle (refEqual) lives only
# in the tests, so FuzzHashCons holds Equal, Hash and Intern to it.
go test -run '^FuzzHashCons$' -fuzz '^FuzzHashCons$' -fuzztime 10s -fuzzminimizetime 100x ./internal/isps
go test -run '^FuzzBindingJSON$' -fuzz '^FuzzBindingJSON$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core
go test -run '^FuzzSynthGadget$' -fuzz '^FuzzSynthGadget$' -fuzztime 10s -fuzzminimizetime 100x ./internal/synth
go test -run '^FuzzInterpReference$' -fuzz '^FuzzInterpReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/interp
go test -run '^FuzzI8086MatchesReference$' -fuzz '^FuzzI8086MatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sim
go test -run '^FuzzVAXMatchesReference$' -fuzz '^FuzzVAXMatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sim
go test -run '^FuzzIBM370MatchesReference$' -fuzz '^FuzzIBM370MatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/sim
go test -run '^FuzzRefRunMatchesReference$' -fuzz '^FuzzRefRunMatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/ir

# Bench stage. bench runs `go test -run '^$' ARGS` with its output
# redirected to a temp file, not piped, so a benchmark that fails stops
# ci.sh; the file is printed either way, and every number read from it is
# gated. Allocation counts are deterministic here to a few dozen, so a new
# allocs/op gate is the most measured in at least 9 runs when it landed,
# + 1%.
BENCH=$(mktemp)
bench() {
  rc=0
  go test -run '^$' "$@" >"$BENCH" || rc=$?
  cat "$BENCH"
  return "$rc"
}

# Cache: the same /analyze request served cold (a full engine run each
# iteration) and warm (a content-addressed cache hit). Over 15 runs on a
# 2-vCPU host the warm row was 117-293x faster; it must stay at least 5x
# faster. The corpora are parsed and interned once per process, so a warm
# hit's cache key is two table lookups and two memoized digests, and the
# request's trace context is one node holding its tracer: the warm row is
# gated at <= 35 allocs/op (34 measured in 10 of 10 runs; 35 with two
# allocations for the trace context, a value node and the boxed ID; 38 with
# an attribute map built for a disabled tracer as well; re-parsing both
# descriptions per key took 760), so a change that parses, or builds trace
# attributes with tracing off, on the warm path fails here. Every
# transformation rebuilds only the spines it edits, a commit interns the
# outcome it owns in place (no copy of the rebuilt spines), a proof script
# finds its target expressions by digest instead of printing every
# candidate, Normalize commits the probe that found a step instead of
# applying it again, a liveness question is one search of the CFG over
# effect sets filled without a map per AST leaf, a failed probe files and
# formats no precondition message, a binding shares its augment statements
# instead of copying them, Normalize probes through move tables resolved
# once per process into a site buffer it reuses, and a tree walk that reads
# no path (isps.Visit) builds none: the cold row is gated at <= 1930
# allocs/op (1,909-1,911 measured in 10 runs; 1,957-1,960, gated at <=
# 1979, with the script targets found by printing as well; 2,022-2,023 with
# those walks building paths through isps.Walk, 2,052-2,053 with a move
# table and a kind map built per Normalize call and a site slice grown per
# round as well, 2,103 with deep copies of the augment statements in the
# augments and in Session.Finish as well, 2,222 with each normalizing step
# applied twice as well, 2,537 with a copying intern per commit, 3,432
# before either and with every probe's message formatted, 3,486 with a
# message filed per failed probe, 3,754 with an all-names liveness
# fixpoint, 4,235 with three maps per AST leaf, 9,054 with
# whole-description copies in 25 transformations, 18,565 before
# hash-consing), so a change that brings back any of them on the cold path
# fails here.
bench -bench 'BenchmarkCacheWarmVsCold' -benchmem -benchtime 20x -count 1 .
COLD_ALLOCS=$(metric '^BenchmarkCacheWarmVsCold/cold' allocs/op "$BENCH")
WARM_ALLOCS=$(metric '^BenchmarkCacheWarmVsCold/warm' allocs/op "$BENCH")
test "$COLD_ALLOCS" -le 1930
test "$WARM_ALLOCS" -le 35
COLD_NS=$(metric '^BenchmarkCacheWarmVsCold/cold' ns/op "$BENCH")
WARM_NS=$(metric '^BenchmarkCacheWarmVsCold/warm' ns/op "$BENCH")
test "$COLD_NS" -ge "$((5 * WARM_NS))"

# Validation and interpreter benchmarks. Validation compiles the operator,
# the variant and every predicate once, binds each constraint to its
# operands' positions once, runs each side on one reused interpreter
# Runner and one reused State over the round's image as a shared
# read-only base, and counts its runs into the metrics registry once per
# validation. Validation makes, assigns, reads and clears no map per
# round: each generator call appends its operands to a buffer and stores
# its bytes into a paged image, and the buffer, the image and the two
# states' paged overlays sit in one scratch that the validation takes from
# a pool and resets every round by walking the write logs, keeping the
# pages; the memory compare reads the logged addresses. So a warm round
# allocates nothing, and the random source the generators draw from is
# kept in the scratch and reseeded each validation. The flagship binding's
# 300-input validation is gated at <= 130 allocs/op (129 measured in 10 of
# 10 runs, + 1%; 131, gated at <= 132, with a random source made per
# validation, 140 with a scratch made per validation instead of pooled, 431
# with an operand slice per round, 433 with pooled image maps from
# core.NewImage, 1,161 with a fresh image map per input, 1,433 with a
# content slice per input as well, 1,453 with a Mem map per side too, 3,249
# with a machine and a Result per run, 12,279 with the tree-walking engine,
# 2,033 with a name-keyed operand map per round): a change that brings back
# per-run machines, per-input parsing, name tables, image copies, per-input
# images or operand vectors fails here. scasb/index writes no memory and
# has no predicate, so the whole catalog (17 bindings, 100 inputs each) is gated
# too, at <= 1749 allocs/op and <= 90837 B/op (1,732 and 89,936-89,938 B
# in 10 runs, + 1%; 1,766 and 182,152-182,156 B, gated at <= 1783 and
# <= 183977, with a random source made per validation; 2,040 and 320,344 B
# with a scratch made per validation, 3,466 and 221,356 B with an operand
# slice per round, 3,614-3,615 and 308,780-308,802 B with pooled image
# maps, 8,164 and 1,717,977 B with a fresh image map per input, whose
# largest is tr/xlate's 257-266 bytes, 10,255 and 1,728,203 B with content
# slices as well; 10,598 with a Mem map per side too, 11,855 with a fresh
# page per round, 23,755 with a name-keyed operand map per round): a
# per-round image, page, operand or map allocation, an unpooled scratch or
# random source, or a per-run allocation on the store or predicate path,
# fails there. The one-shot interpreter row has no gate beyond running
# cleanly.
bench -bench 'BenchmarkTable2Validation$|BenchmarkCatalogValidation$|BenchmarkInterpreter$' -benchmem -benchtime 100x -count 1 -cpu 1 .
VAL_ALLOCS=$(metric '^BenchmarkTable2Validation' allocs/op "$BENCH")
CATVAL_ALLOCS=$(metric '^BenchmarkCatalogValidation' allocs/op "$BENCH")
CATVAL_BYTES=$(metric '^BenchmarkCatalogValidation' B/op "$BENCH")
test "$VAL_ALLOCS" -le 130
test "$CATVAL_ALLOCS" -le 1749
test "$CATVAL_BYTES" -le 90837

# Table 2 and auto-search allocation gates. TABLE2_ALLOCS sums the eleven
# scripted analyses (11,690-11,693 in 10 runs -> <= 11809; 12,253-12,255,
# gated at <= 12377, with every script target expression found by printing
# each candidate; 12,724-12,727 with the tree walks that read no path
# building one through isps.Walk, 12,854-12,859 with a move table and a
# kind map built per Normalize call as well, 13,171 with deep copies of the
# augment statements as well, 13,669 with each normalizing step applied
# twice as well, 16,152 with a copying intern per commit, 21,677 before
# either and with every probe's message formatted, 21,919 with a
# precondition message filed per failed probe, 23,247 with an all-names
# liveness fixpoint, 26,967 with three maps per AST leaf in the effect
# sets, 56,842 before the corpora were parsed once and every transformation
# became a spine rebuild); their step counts are pinned by
# TestTable2StepCountsGolden. The search charges each candidate to its
# state budget as it probes it and stops at the goal or the budget, a
# failed probe neither formats nor files a precondition message, new states
# are interned in place, the goal's trail is committed from its probes'
# outcomes, a probe passes no argument map, a state's sites go into one
# buffer the search reuses, a refused probe's error is matched by a type
# assertion (errors.As boxes its target on the heap), and a walk that reads
# no path builds none, so both search rows are gated too (ladder
# 2,092-2,093 in 10 runs -> <= 2113, exhaust 184,195-184,198 -> <= 186046;
# ladder 2,171-2,172, gated at <= 2193, while a copying Intern recopied the
# benchmark's one parse on every NewSession; 2,300 and 205,156 with
# errors.As on every refused probe; 2,331 and 210,781-210,784 with
# path-building walks as well; 2,472-2,474 and 220,892-220,896 with a map
# of site slices by node kind per side per state and a move table per
# search; 2,845 and 272,855 with a one-entry argument map built per probe
# as well, which no searched move reads; 2,885 with the trail replayed
# through Session.Apply as well, 3,524 and 363,794 with every refused
# probe's message formatted, 3,308 and 293,447 with a copying intern, 4,738
# and 501,722 before either, 4,882 and 527,550 with a message filed per
# failed probe): a change that goes back to expanding a whole level before
# charging the budget fails here (the level-at-a-time search took 7,688 and
# 1,439,982), and so does one that brings back a map per AST leaf (6,635
# and 922,349), an eagerly formatted message, a copying intern, a replayed
# trail or an argument map per probe.
bench -bench 'BenchmarkTable2$|BenchmarkAutoSearchLadder$|BenchmarkAutoSearchExhaust$' -benchmem -benchtime 10x -count 1 -cpu 1 .
TABLE2_ALLOCS=$(metric '^BenchmarkTable2/' allocs/op "$BENCH")
LADDER_ALLOCS=$(metric '^BenchmarkAutoSearchLadder' allocs/op "$BENCH")
EXHAUST_ALLOCS=$(metric '^BenchmarkAutoSearchExhaust' allocs/op "$BENCH")
test "$TABLE2_ALLOCS" -le 11809
test "$LADDER_ALLOCS" -le 2113
test "$EXHAUST_ALLOCS" -le 186046

# Synth: one binding's enumerate-verify-rank cycle and the cross-layer
# sweeps. The simulators decode each program once into register slots,
# label indexes and one handler per instruction, keep memory in pages
# allocated on first store, and a variant's trials are compared page by
# page, not as 64 KiB copies; the code generator clears its register-
# preference maps in place at each label and branch, names labels without
# fmt, the front end parses a line without keyword maps, and the sweep's
# reference runs (next gate) grow no memory map: 3,379 (2 of 10 runs,
# 3,375-3,379) -> <= 3413 and 10,411 (10,396-10,411 in 10 runs) -> <=
# 10515 (10,671-10,677 with reference runs on a memory map grown byte by
# byte; 10,828-10,831 with a fresh paged memory per run; 3,381-3,383 and
# 12,756-12,760 with two fresh maps per label and branch, a formatted
# label and two map literals per parsed line; 6,723-6,737 and
# 13,584-13,593 with a string-keyed register map, a label map and a
# zeroed 64 KiB image per machine).
bench -bench 'BenchmarkSynth$|BenchmarkSweep$' -benchmem -benchtime 5x -count 1 ./internal/synth
SYNTH_ALLOCS=$(metric '^BenchmarkSynth' allocs/op "$BENCH")
SWEEP_ALLOCS=$(metric '^BenchmarkSweep' allocs/op "$BENCH")
test "$SYNTH_ALLOCS" -le 3413
test "$SWEEP_ALLOCS" -le 10515

# Reference run: the IR evaluator every generated program is checked
# against, over each operator class's synth workload at the six boundary
# lengths (30 runs per op). A run writes a paged memory that an earlier
# run finished and reset, and builds its memory map once, at its final
# size, from that memory's write log: 176 allocs/op in 10 of 10 runs ->
# <= 177 (392 with a memory map grown byte by byte; 496 with a fresh
# paged memory per run), so a change that brings back a map grown per
# write or a memory made per run fails here.
bench -bench 'BenchmarkReferenceRun$' -benchmem -benchtime 200x -count 1 -cpu 1 .
REF_ALLOCS=$(metric '^BenchmarkReferenceRun' allocs/op "$BENCH")
test "$REF_ALLOCS" -le 177

# Simulators: the motivation benchmark's 12 rows (a 256-byte move and
# search on every target, exotic and decomposed) time codegen.Run alone.
# Summed over the rows like TABLE2: 60 allocs/op and 61,744 B/op in 10 of
# 10 runs -> <= 61 and <= 62362 (63,696 B when a decoded instruction
# held its mnemonic instead of its handler, 65,152 with both; 99 allocs
# and 794,112 B with a string-keyed register map, a label map and a
# zeroed 64 KiB image per machine), so a change that brings back a map, a
# whole-memory image or a wider decoded instruction fails here.
bench -bench 'BenchmarkMotivationExoticVsPrimitive$' -benchmem -benchtime 2000x -count 1 -cpu 1 .
SIM_ALLOCS=$(metric '^BenchmarkMotivationExoticVsPrimitive/' allocs/op "$BENCH")
SIM_BYTES=$(metric '^BenchmarkMotivationExoticVsPrimitive/' B/op "$BENCH")
test "$SIM_ALLOCS" -le 61
test "$SIM_BYTES" -le 62362
rm -f "$BENCH"

# Serve smoke: boot the real binary, run one analysis over HTTP twice (the
# engine answers the first request, the cache the second, and the two rows
# must match modulo duration and trace ID), scrape /metrics in both
# encodings (JSON default, Prometheus text exposition via content
# negotiation), check each response row carries the trace ID its
# X-Trace-Id header names, then SIGTERM and require a clean (exit 0)
# graceful drain.
go build -o "$EXTRA" ./cmd/extra
# An out-of-range flag is refused before the server listens: exit 1 within
# 10 s and no "serving on" line.
BAD_LOG=$(mktemp)
BAD_RC=0
timeout 10 "$EXTRA" serve -addr 127.0.0.1:0 -request-timeout -1s >"$BAD_LOG" 2>&1 || BAD_RC=$?
if [ "$BAD_RC" -ne 1 ] || grep -q '^serving on' "$BAD_LOG"; then exit 1; fi
rm -f "$BAD_LOG"
SERVE_LOG=$(mktemp)
"$EXTRA" serve -addr 127.0.0.1:0 >"$SERVE_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^serving on //p' "$SERVE_LOG")
  if [ -n "$ADDR" ]; then break; fi
  sleep 0.1
done
test -n "$ADDR"
for RUN in cold warm; do
  curl -fsS -D "$CI_TMP/$RUN.head" -o "$CI_TMP/$RUN.body" -X POST "http://$ADDR/analyze?pair=scasb/index"
done
grep -q '"outcome": *"ok"' "$CI_TMP/cold.body"
for RUN in cold warm; do
  HID=$(tr -d '\r' <"$CI_TMP/$RUN.head" | sed -n 's/^[Xx]-[Tt]race-[Ii]d: //p')
  test -n "$HID"
  grep -q "\"trace\": *\"$HID\"" "$CI_TMP/$RUN.body"
done
tr -d '\r' <"$CI_TMP/cold.head" | grep -qix 'X-Cache: miss'
tr -d '\r' <"$CI_TMP/warm.head" | grep -qix 'X-Cache: hit'
normalize "$CI_TMP/cold.body" >"$CI_TMP/cold.norm"
normalize "$CI_TMP/warm.body" >"$CI_TMP/warm.norm"
diff "$CI_TMP/cold.norm" "$CI_TMP/warm.norm"
curl -fsS "http://$ADDR/metrics" | grep -q '"server.requests"'
PROM=$(mktemp)
curl -fsS "http://$ADDR/metrics?format=prom" >"$PROM"
grep -q '^# TYPE server_requests counter' "$PROM"
grep -q '^server_latency_ns{label="/analyze",quantile="0.99"}' "$PROM"
grep -q '^runtime_goroutines' "$PROM"
rm -f "$PROM"
curl -fsS "http://$ADDR/readyz" | grep -q ready
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
grep -q 'drained:' "$SERVE_LOG"
rm -f "$SERVE_LOG"

# Loadgen SLO stage: the real binary drives itself with a fixed-seed warm-
# heavy request mix and gates on the latency SLO — zero 5xx responses and
# warm-hit p99 strictly below cold-miss p50 (the cache must actually be
# cheaper than the engine). Serial (-concurrency 1): this is an unloaded
# latency probe, not a saturation test — on a small CI box extra workers
# only measure CPU starvation behind the validation runs, not the service.
"$EXTRA" loadgen -requests 300 -duration 60s -concurrency 1 \
  -warm-frac 0.8 -seed 1 -validate 2000 \
  -slo-max-5xx 0 -slo-warm-p99-lt-cold-p50

# Checkpoint-resume stage: kill -9 a journaling batch run mid-flight, resume
# it, and require the final report byte-identical (modulo durations) to an
# uninterrupted run. The killed run validates 20,000 inputs per analysis so
# that it is still running when the poll below sees its third row: at 2,000
# inputs the whole catalog journals in about 50 ms, one poll interval, and
# the kill found the run already finished in 11 of 20 tries on a 2-vCPU
# host; at 20,000 it takes about 300 ms and was killed after 3-5 rows in 20
# of 20.
CKPT_DIR=$(mktemp -d)
"$EXTRA" batch -jobs 2 -validate 20000 -jsonl "$CKPT_DIR/ref.jsonl"
"$EXTRA" batch -jobs 1 -validate 20000 -jsonl "$CKPT_DIR/journal.jsonl" &
BATCH_PID=$!
for _ in $(seq 1 200); do
  if [ "$(grep -c . "$CKPT_DIR/journal.jsonl" 2>/dev/null || echo 0)" -ge 3 ]; then break; fi
  sleep 0.05
done
kill -9 "$BATCH_PID"
wait "$BATCH_PID" || true
PARTIAL=$(grep -c . "$CKPT_DIR/journal.jsonl")
test "$PARTIAL" -ge 3
"$EXTRA" batch -jobs 2 -validate 20000 -jsonl "$CKPT_DIR/journal.jsonl" -resume "$CKPT_DIR/journal.jsonl"
normalize "$CKPT_DIR/ref.jsonl" > "$CKPT_DIR/ref.norm"
normalize "$CKPT_DIR/journal.jsonl" > "$CKPT_DIR/journal.norm"
diff "$CKPT_DIR/ref.norm" "$CKPT_DIR/journal.norm"
rm -rf "$CKPT_DIR"

# Discover-chaos stage: a bounded discovery sweep is killed -9 mid-flight
# and resumed. The resume must replay the WAL rather than re-prove
# journaled candidates (resumed > 0 in the summary), and the final report
# must be byte-identical (modulo durations and trace IDs) to an
# uninterrupted run. The uninterrupted run writes its event trace, which
# must join its report. Then the poison quarantine meets a real fault: under
# a 1 ns per-candidate deadline every candidate's run times out, so all six
# are quarantined as poison rows of class timeout, and the report is the
# same at one worker and at two.
DISC_DIR=$(mktemp -d)
DISC_FLAGS="-machines VAX-11 -operators Pascal -depth 3 -budget 2000 -rungs 2"
"$EXTRA" discover -dir "$DISC_DIR/ref" -jobs 2 $DISC_FLAGS --trace "$DISC_DIR/ref.jsonl" 2>"$DISC_DIR/ref.err"
joined "$DISC_DIR/ref.err" "$DISC_DIR/ref.jsonl" "$DISC_DIR/ref/report.json"
"$EXTRA" discover -dir "$DISC_DIR/sweep" -jobs 1 $DISC_FLAGS 2>"$DISC_DIR/kill.err" &
DISC_PID=$!
for _ in $(seq 1 200); do
  if [ "$(grep -c . "$DISC_DIR/sweep/queue.jsonl" 2>/dev/null || echo 0)" -ge 4 ]; then break; fi
  sleep 0.05
done
kill -9 "$DISC_PID"
wait "$DISC_PID" || true
test "$(grep -c . "$DISC_DIR/sweep/queue.jsonl")" -ge 4
"$EXTRA" discover -dir "$DISC_DIR/sweep" -jobs 2 -resume $DISC_FLAGS 2>"$DISC_DIR/resume.err"
cat "$DISC_DIR/resume.err"
grep -Eq 'discover: summary .*resumed=[1-9]' "$DISC_DIR/resume.err"
normalize "$DISC_DIR/ref/report.json" > "$DISC_DIR/ref.norm"
normalize "$DISC_DIR/sweep/report.json" > "$DISC_DIR/sweep.norm"
diff "$DISC_DIR/ref.norm" "$DISC_DIR/sweep.norm"
for JOBS in 1 2; do
  "$EXTRA" discover -dir "$DISC_DIR/timeout$JOBS" -jobs "$JOBS" -machines VAX-11 -operators Pascal -each-timeout 1ns 2>/dev/null
  normalize "$DISC_DIR/timeout$JOBS/report.json" > "$DISC_DIR/timeout$JOBS.norm"
done
grep -q '"poison": 6' "$DISC_DIR/timeout1.norm"
test "$(grep -c '"class": "timeout"' "$DISC_DIR/timeout1.norm")" -eq 6
test "$(grep -c '"class":' "$DISC_DIR/timeout1.norm")" -eq 6
diff "$DISC_DIR/timeout1.norm" "$DISC_DIR/timeout2.norm"
rm -rf "$DISC_DIR"

# Synth stage: inverse-mode gadget synthesis over three bindings (one per
# target) with the full cross-layer divergence sweep. The command itself
# exits nonzero on any divergence between codegen and the IR reference, any
# simulator/description disagreement, any corrupt binding document, or any
# gadget expansion that fails differential verification — so the stage is
# the bugfix-sweep gate. On top of that: every binding must rank at least 5
# verified variants, a re-run with the same seed must be byte-identical
# modulo durations and trace IDs, and the first run's event trace must join
# its report.
SYNTH_DIR=$(mktemp -d)
SYNTH_BINDINGS='Intel 8086/scasb/index,VAX-11/movc3/sassign,IBM 370/mvc/sassign'
"$EXTRA" synth -seed 1 -bindings "$SYNTH_BINDINGS" -json "$SYNTH_DIR/a.json" --trace "$SYNTH_DIR/a.jsonl" >"$SYNTH_DIR/a.txt" 2>"$SYNTH_DIR/a.err"
joined "$SYNTH_DIR/a.err" "$SYNTH_DIR/a.jsonl" "$SYNTH_DIR/a.json"
grep -q 'no divergences' "$SYNTH_DIR/a.txt"
grep '"verified":' "$SYNTH_DIR/a.json" | awk '{ n = $2 + 0; if (n < 5) exit 1 }'
test "$(grep -c '"key":' "$SYNTH_DIR/a.json")" -eq 3
"$EXTRA" synth -seed 1 -bindings "$SYNTH_BINDINGS" -json "$SYNTH_DIR/b.json" >/dev/null
normalize "$SYNTH_DIR/a.json" > "$SYNTH_DIR/a.norm"
normalize "$SYNTH_DIR/b.json" > "$SYNTH_DIR/b.norm"
diff "$SYNTH_DIR/a.norm" "$SYNTH_DIR/b.norm"
rm -rf "$SYNTH_DIR"
