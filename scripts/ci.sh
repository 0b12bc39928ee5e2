#!/usr/bin/env bash
# CI pipeline: tiered tests + benchmark regression gate.
#
#   1. plain build (JIGSAW_OBS=ON, the default) with warnings as errors
#      (JIGSAW_WERROR=ON), tier-1 tests (ctest -L tier1 — the fast gate set)
#   2. JIGSAW_OBS=OFF build, tier-1 tests — proves the no-op observability
#      stubs compile everywhere and nothing depends on counters existing
#   3. ASan+UBSan build (JIGSAW_SANITIZE=ON), tier-1 tests — includes the
#      thread-invariance, plan-cache, and counter-shard concurrency suites,
#      so the lock-free counter paths run sanitized on every CI pass
#   3a. TSan build (JIGSAW_TSAN=ON) of the serve/deadline/router/stream
#      suites and the shared-plan suites — the service layer's dispatcher +
#      connection threads, the deadline token, the router's forwarder +
#      health-ping threads, the streaming-session machinery, coil/frame
#      threads calling one const NufftPlan (SENSE, the serve engine's
#      adjoint batch, thread invariance, SharedPlan), and threaded FFT lines
#      on every plan kind
#      and one shared FftNd (FftNd, FftPlanCache) run under ThreadSanitizer
#      on every CI pass
#   4. bench_suite --smoke (obs ON) compared against the committed
#      BENCH_baseline.json — fails on any checksum drift, any work-counter
#      drift or a missing entry on every host, and on a >15% slowdown when
#      the baseline was recorded on the same host class (nproc, CPU model,
#      SIMD ISA, build type; see scripts/bench_compare.py); the JSON is
#      schema-validated with counters required
#   4a. dataset smoke — jigsaw_dataset generate -> validate -> jigsaw_cli
#      recon --dataset with Pipe-Menon DCF under an NRMSE <= 0.30 quality
#      gate, then a mid-file byte flip: validate must exit 2 naming the
#      rejected chunk and the recon must complete on the survivors
#   4b. router smoke — two jigsaw_serve workers (one TCP, one Unix socket)
#      behind jigsaw_router on an ephemeral TCP port; interleaved requests
#      across three geometry classes must all relay, each class must pin to
#      exactly one worker (shard counts read from the router's stats JSON),
#      and SIGTERM must drain router and workers to a clean exit 0
#   4c. stream smoke — one jigsaw_serve session of 8 warm-started frames,
#      then a SIGTERM mid-stream: every admitted frame must get a reply
#   5. bench_suite --smoke from the OFF build compared against the ON
#      build of the same run — the overhead guard: a disabled
#      observability layer must bench within the ordinary noise threshold
#      of the enabled one on the same host. The ON reference is built the
#      way the committed baseline is: the per-entry maximum of three smoke
#      runs (stage 4's plus two more; scripts/bench_max.py)
#
# JIGSAW_CI_FULL=1 widens the test runs to the complete suite (tier1 +
# tier2 soak tests) — what the merge gate runs; the default is the fast
# inner-loop configuration.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

TEST_ARGS=(--output-on-failure -j"${JOBS}")
if [[ "${JIGSAW_CI_FULL:-0}" != "1" ]]; then
  TEST_ARGS+=(-L tier1)
  echo "=== tier-1 run (JIGSAW_CI_FULL=1 for the full suite) ==="
else
  echo "=== full-suite run ==="
fi

echo "=== plain build (JIGSAW_OBS=ON, -Werror) + ctest ==="
cmake -B build -S . -DJIGSAW_OBS=ON -DJIGSAW_WERROR=ON >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build "${TEST_ARGS[@]}"

echo "=== JIGSAW_OBS=OFF build + ctest ==="
cmake -B build-noobs -S . -DJIGSAW_OBS=OFF >/dev/null
cmake --build build-noobs -j"${JOBS}"
ctest --test-dir build-noobs "${TEST_ARGS[@]}"

echo "=== ASan+UBSan build + ctest ==="
cmake -B build-asan -S . -DJIGSAW_SANITIZE=ON >/dev/null
cmake --build build-asan -j"${JOBS}"
ctest --test-dir build-asan "${TEST_ARGS[@]}"

echo "=== TSan build + serve/deadline/router/stream + shared-plan suites ==="
# The service layer is the most thread-heavy subsystem (dispatcher thread,
# per-connection readers, concurrent clients, the router's forwarders +
# health pinger, and the session dispatcher shared by streaming frames);
# coil and frame threads all call one const NufftPlan (SENSE, the serve
# engine's adjoint batch in the Serve, Deadline and ThreadInvariance
# suites, and SharedPlan); FftNd::execute splits the lines
# of mixed-radix and Bluestein plans alike across threads, and
# many threads share one cached FftNd (FftNd, FftPlanCache). Run exactly
# those suites under ThreadSanitizer. They also hold the closed-loop serve
# and stream gates (every request OK, worker shares summing to the totals,
# one plan per geometry class, the warm-start iteration floor), so those
# run sanitized too. Bench/examples are skipped to keep the stage short.
cmake -B build-tsan -S . -DJIGSAW_TSAN=ON \
  -DJIGSAW_BUILD_BENCH=OFF -DJIGSAW_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j"${JOBS}" --target test_serve test_deadline \
  test_router test_stream test_sense test_thread_invariance \
  test_fft test_plan_cache
ctest --test-dir build-tsan --output-on-failure -j"${JOBS}" \
  -R 'Serve|Deadline|Router|Stream|Sense|ThreadInvariance|SharedPlan|FftNd|FftPlanCache'

echo "=== benchmark smoke + regression/work gate (obs ON) ==="
./build/bench/bench_suite --smoke --tag ci --out build/BENCH_ci.json
python3 scripts/validate_bench.py build/BENCH_ci.json --require-counters
python3 scripts/bench_compare.py BENCH_baseline.json build/BENCH_ci.json --smoke

echo "=== dataset smoke: generate -> validate -> recon + corruption gate ==="
# End-to-end ingest path: synthesize a multi-coil JKSD acquisition, validate
# its checksums, reconstruct it through jigsaw_cli with Pipe-Menon DCF (the
# NRMSE quality gate), then flip bytes mid-file and require (a) validate to
# exit 2 naming the rejected chunk and (b) the recon to proceed on the
# surviving chunks — per-chunk corruption must never be fatal.
(
  DSMOKE=build/dataset_smoke
  rm -rf "${DSMOKE}" && mkdir -p "${DSMOKE}"
  ./build/tools/jigsaw_dataset generate --out "${DSMOKE}/scan.jksd" \
    --n 64 --coils 8 --chunks 3 --samples-per-chunk 6000 --seed 7
  ./build/tools/jigsaw_dataset validate "${DSMOKE}/scan.jksd"
  ./build/tools/jigsaw_cli recon --dataset "${DSMOKE}/scan.jksd" --coils 8 \
    --engine auto --dcf pipe-menon --out "${DSMOKE}/recon.pgm" \
    | tee "${DSMOKE}/recon.log"
  python3 - "${DSMOKE}/recon.log" <<'PYEOF'
import re, sys
log = open(sys.argv[1]).read()
m = re.search(r"dataset recon: mean NRMSE ([0-9.]+) over (\d+) chunks", log)
assert m, log
nrmse, chunks = float(m.group(1)), int(m.group(2))
assert chunks == 3, (chunks, "a chunk went missing on a clean file")
assert nrmse <= 0.30, (nrmse, "DCF-corrected recon quality gate")
print(f"dataset smoke: clean file, {chunks}/3 chunks, "
      f"NRMSE {nrmse:.4f} <= 0.30")
PYEOF

  head -c 64 /dev/zero | tr '\0' 'J' \
    | dd of="${DSMOKE}/scan.jksd" bs=1 seek=4096 conv=notrunc 2>/dev/null
  set +e
  ./build/tools/jigsaw_dataset validate "${DSMOKE}/scan.jksd" \
    > "${DSMOKE}/validate.log"
  VRC=$?
  set -e
  [ "${VRC}" -eq 2 ] || {
    echo "validate exit ${VRC} on a corrupt file, expected 2" >&2
    cat "${DSMOKE}/validate.log" >&2
    exit 1
  }
  grep -q "REJECT slot 0" "${DSMOKE}/validate.log"
  ./build/tools/jigsaw_cli recon --dataset "${DSMOKE}/scan.jksd" \
    --dcf pipe-menon --out "${DSMOKE}/recon_cut.pgm" \
    | tee "${DSMOKE}/recon_cut.log"
  grep -q "ingest: 2 chunks read .*, 1 rejected" "${DSMOKE}/recon_cut.log"
  echo "dataset smoke: corrupt chunk rejected, recon survived on 2/3 chunks"
)

# Daemon helpers for the router and stream smokes (stages 4b, 4c), which
# run in subshells that inherit them.
wait_for_line() {  # <file> <pattern>: daemons print readiness to stdout
  for _ in $(seq 1 100); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "timeout waiting for '$2' in $1" >&2
  cat "$1" >&2 || true
  return 1
}
bound_endpoint() {  # <file>: the host:port of a daemon's "listening on" line
  sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$1" | head -1
}

echo "=== router smoke: sharded fleet + stats gate + graceful drain ==="
# Two workers — one TCP, one Unix socket (the router mixes transports) —
# behind jigsaw_router, everything on ephemeral ports parsed from the
# daemons' own "listening on" lines so parallel CI runs never collide.
# The stage runs in a subshell so its EXIT trap reaps the daemons even
# when an assertion fails mid-stage.
(
  RSMOKE=build/router_smoke
  rm -rf "${RSMOKE}" && mkdir -p "${RSMOKE}"
  trap 'kill ${WA:-} ${WB:-} ${RT:-} 2>/dev/null || true' EXIT

  ./build/tools/jigsaw_serve --listen 127.0.0.1:0 --threads 2 \
    > "${RSMOKE}/worker_a.log" 2>&1 &
  WA=$!
  ./build/tools/jigsaw_serve --socket "${RSMOKE}/worker_b.sock" --threads 2 \
    > "${RSMOKE}/worker_b.log" 2>&1 &
  WB=$!
  wait_for_line "${RSMOKE}/worker_a.log" "listening on"
  wait_for_line "${RSMOKE}/worker_b.log" "listening on"

  ./build/tools/jigsaw_router --listen 127.0.0.1:0 \
    "$(bound_endpoint "${RSMOKE}/worker_a.log")" \
    "unix:${RSMOKE}/worker_b.sock" > "${RSMOKE}/router.log" 2>&1 &
  RT=$!
  wait_for_line "${RSMOKE}/router.log" "listening on"
  RT_EP=$(bound_endpoint "${RSMOKE}/router.log")

  # Three geometry classes (distinct N), four requests each, interleaved:
  # rendezvous sharding must pin every class to exactly one worker.
  for _ in 1 2 3 4; do
    for n in 96 112 128; do
      ./build/tools/jigsaw_client recon --endpoint "${RT_EP}" --n "${n}" \
        --samples 4000 --engine slice-dice >/dev/null
    done
  done

  ./build/tools/jigsaw_client stats --endpoint "${RT_EP}" \
    > "${RSMOKE}/statsz.json"
  python3 - "${RSMOKE}/statsz.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["router"] is True, doc
req = doc["requests"]
assert req["received"] == 12 and req["relayed"] == 12, req
workers = doc["workers"]
assert len(workers) == 2 and all(w["healthy"] for w in workers), workers
shares = [w["forwarded"] for w in workers]
# 4 requests per class, each class entirely on one worker => every share
# is a multiple of 4 and the shares cover all 12 requests.
assert sum(shares) == 12 and all(s % 4 == 0 for s in shares), shares
print(f"router smoke: 12/12 relayed, shard split {shares}")
PYEOF

  # Graceful drain: SIGTERM each tier, require clean exits and the final
  # counter lines proving nothing was dropped on the way down.
  kill -TERM "${RT}" && wait "${RT}"
  grep -q "received=12 relayed=12" "${RSMOKE}/router.log"
  kill -TERM "${WA}" "${WB}" && wait "${WA}" && wait "${WB}"
  grep -q "jigsaw_serve: done\." "${RSMOKE}/worker_a.log"
  grep -q "jigsaw_serve: done\." "${RSMOKE}/worker_b.log"
  trap - EXIT
)

echo "=== stream smoke: session round trip + lossless mid-stream drain ==="
# One worker on an ephemeral TCP port. First a full 8-frame session must
# complete with every frame OK and warm-started after the first. Then a
# long stream is SIGTERMed mid-flight: the drain contract says every frame
# the worker admitted gets a terminal reply — the client's reply count must
# equal the worker's frames_submitted, zero drops.
(
  SSMOKE=build/stream_smoke
  rm -rf "${SSMOKE}" && mkdir -p "${SSMOKE}"
  trap 'kill ${SW:-} 2>/dev/null || true' EXIT

  ./build/tools/jigsaw_serve --listen 127.0.0.1:0 --threads 2 \
    > "${SSMOKE}/worker.log" 2>&1 &
  SW=$!
  wait_for_line "${SSMOKE}/worker.log" "listening on"
  SW_EP=$(bound_endpoint "${SSMOKE}/worker.log")

  # Full session: open -> 8 frames -> close, all OK, frames 2..8 warm.
  ./build/tools/jigsaw_client stream --endpoint "${SW_EP}" --frames 8 \
    --n 64 --spoke-samples 64 > "${SSMOKE}/full.log"
  grep -q "8/8 ok, 7 warm" "${SSMOKE}/full.log"

  # Mid-stream drain: push a long sequence, SIGTERM the worker while frames
  # are in flight. The client exits non-zero (its stream was cut short) —
  # that is expected; the gate is the reply accounting below.
  ./build/tools/jigsaw_client stream --endpoint "${SW_EP}" --frames 500 \
    --n 96 > "${SSMOKE}/cut.log" 2>&1 &
  CL=$!
  wait_for_line "${SSMOKE}/cut.log" "frame   3/500"
  kill -TERM "${SW}" && wait "${SW}"
  wait "${CL}" || true

  grep -q "jigsaw_serve: done\." "${SSMOKE}/worker.log"
  python3 - "${SSMOKE}" <<'PYEOF'
import re, sys
base = sys.argv[1]
worker = open(base + "/worker.log").read()
m = re.search(r"sessions opened=(\d+) closed=(\d+) frames=(\d+) "
              r"answered=(\d+)", worker)
assert m, worker
opened, closed, frames, answered = map(int, m.groups())
assert opened == 2, (opened, "both sessions reached the worker")
assert frames == answered, (frames, answered, "drain dropped a frame")
# Every frame the worker admitted produced a reply line at the client
# (8 in the completed run + the mid-stream replies in the cut run).
cut_replies = len(re.findall(r"^frame +\d+/500:", open(base + "/cut.log")
                             .read(), re.M))
assert 8 + cut_replies == answered, (cut_replies, answered)
print(f"stream smoke: {answered}/{frames} frames answered "
      f"({cut_replies} before the mid-stream drain), zero drops")
PYEOF
  trap - EXIT
)

echo "=== observability overhead guard (obs OFF) ==="
./build/bench/bench_suite --smoke --tag ci-on2 --out build/BENCH_ci-on2.json
./build-noobs/bench/bench_suite --smoke --tag ci-noobs \
  --out build-noobs/BENCH_ci-noobs.json
./build/bench/bench_suite --smoke --tag ci-on3 --out build/BENCH_ci-on3.json
python3 scripts/validate_bench.py build-noobs/BENCH_ci-noobs.json
python3 scripts/bench_max.py build/BENCH_ci.json build/BENCH_ci-on2.json \
  build/BENCH_ci-on3.json > build/BENCH_ci-on-max.json
python3 scripts/bench_compare.py build/BENCH_ci-on-max.json \
  build-noobs/BENCH_ci-noobs.json --smoke

echo "=== CI green: tests + sanitizers + benchmark/work/overhead gates pass ==="
