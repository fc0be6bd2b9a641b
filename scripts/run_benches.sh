#!/usr/bin/env sh
# Perf trajectory plumbing: run bench_pipeline_e2e + bench_reconcile +
# bench_multilink + bench_scenarios + bench_key_delivery + bench_network +
# bench_chaos + bench_orchestrator_scale + bench_toeplitz and write
# BENCH_pipeline.json at the repo root, so
# subsequent PRs can compare end-to-end blocks/s, multi-link aggregate
# secret bits/s, static-vs-adaptive scenario throughput, concurrent-SAE
# key-delivery throughput, relay-network end-to-end delivery (clean vs
# forced-outage availability), chaos goodput under channel faults,
# per-stage items/s, and the Toeplitz kernel times against this baseline.
# When bench/baseline.json exists the run finishes with
# scripts/bench_compare.py, failing on regressions (the local mirror of the
# CI bench-gate job).
#
# Usage: run_benches.sh [--quick]
#   --quick          shorter scenario timelines (the CI bench-gate posture)
#
# Env knobs:
#   BUILD_DIR            build tree to use (default: build)
#   TOEPLITZ_FILTER      google-benchmark filter for the kernel sweep
#                        (default: the 65536/100000-bit acceptance points)
#   QKDPP_BENCH_NO_GATE  set to 1 to skip the baseline comparison
set -eu
cd "$(dirname "$0")/.."
BUILD=${BUILD_DIR:-build}
FILTER=${TOEPLITZ_FILTER:-'(BM_ToeplitzDirect|BM_ToeplitzClmul|BM_ToeplitzNtt)/(65536|100000)$'}
SCENARIO_ARGS=""
for arg in "$@"; do
  case "$arg" in
    --quick) SCENARIO_ARGS="--quick" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j --target bench_pipeline_e2e bench_reconcile \
  bench_multilink bench_scenarios bench_key_delivery bench_network \
  bench_chaos bench_orchestrator_scale >/dev/null

echo "== bench_pipeline_e2e =="
# No pipe here: under `set -e` a pipeline would mask a crashing bench with
# tee's exit status and bake a garbage baseline into BENCH_pipeline.json.
"$BUILD"/bench_pipeline_e2e > "$BUILD"/bench_pipeline_e2e.out
cat "$BUILD"/bench_pipeline_e2e.out
PIPELINE_JSON=$(tail -n 1 "$BUILD"/bench_pipeline_e2e.out)
case "$PIPELINE_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_pipeline_e2e summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_reconcile =="
# Self-gates: the batched int8 decoder must clear 5x the pre-batching
# reconcile throughput at 10 km; a violation exits non-zero and fails
# here.
"$BUILD"/bench_reconcile > "$BUILD"/bench_reconcile.out
cat "$BUILD"/bench_reconcile.out
RECONCILE_JSON=$(tail -n 1 "$BUILD"/bench_reconcile.out)
case "$RECONCILE_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_reconcile summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_multilink =="
"$BUILD"/bench_multilink > "$BUILD"/bench_multilink.out
cat "$BUILD"/bench_multilink.out
MULTILINK_JSON=$(tail -n 1 "$BUILD"/bench_multilink.out)
case "$MULTILINK_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_multilink summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_scenarios $SCENARIO_ARGS =="
# The scenario bench self-gates (adaptive >= static everywhere, >10% on
# qber-burst and device-hot-remove): a non-zero exit fails the run here.
"$BUILD"/bench_scenarios $SCENARIO_ARGS > "$BUILD"/bench_scenarios.out
cat "$BUILD"/bench_scenarios.out
SCENARIOS_JSON=$(tail -n 1 "$BUILD"/bench_scenarios.out)
case "$SCENARIOS_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_scenarios summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_key_delivery =="
# Self-gates: zero duplicate UUID deliveries and zero lost key bits across
# the concurrent SAE consumers; a violation exits non-zero and fails here.
"$BUILD"/bench_key_delivery > "$BUILD"/bench_key_delivery.out
cat "$BUILD"/bench_key_delivery.out
KEY_DELIVERY_JSON=$(tail -n 1 "$BUILD"/bench_key_delivery.out)
case "$KEY_DELIVERY_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_key_delivery summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_network =="
# Self-gates: zero duplicate/lost bits end-to-end across the trusted-node
# relay network, and the forced-outage phase must deliver >= 0.9x the
# clean run's availability via re-route; a violation exits non-zero here.
"$BUILD"/bench_network > "$BUILD"/bench_network.out
cat "$BUILD"/bench_network.out
NETWORK_JSON=$(tail -n 1 "$BUILD"/bench_network.out)
case "$NETWORK_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_network summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_chaos =="
# Self-gates: chaotic goodput >= 0.7x clean under 5% loss + 1% corruption,
# byte-identical keys across clean/chaotic/replay runs (zero lost or
# duplicated bits, zero keys failing verification), breaker opens on the
# dark link, actionable 503s; a violation exits non-zero and fails here.
"$BUILD"/bench_chaos > "$BUILD"/bench_chaos.out
cat "$BUILD"/bench_chaos.out
CHAOS_JSON=$(tail -n 1 "$BUILD"/bench_chaos.out)
case "$CHAOS_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_chaos summary line is not JSON" >&2; exit 1 ;;
esac

echo "== bench_orchestrator_scale =="
# Self-gates: 1 -> 128 link sweep with core-count-normalized scaling
# (>= 8x the 8-link aggregate on wide hosts), exact store conservation
# (zero lost/duplicate bits), and same-seed byte-identical reruns; a
# violation exits non-zero and fails here.
"$BUILD"/bench_orchestrator_scale > "$BUILD"/bench_orchestrator_scale.out
cat "$BUILD"/bench_orchestrator_scale.out
SCALE_JSON=$(tail -n 1 "$BUILD"/bench_orchestrator_scale.out)
case "$SCALE_JSON" in
  '{'*'}') ;;
  *) echo "error: bench_orchestrator_scale summary line is not JSON" >&2; exit 1 ;;
esac

# bench_toeplitz needs google-benchmark; degrade gracefully without it.
TOEPLITZ_JSON=null
if cmake --build "$BUILD" -j --target bench_toeplitz >/dev/null 2>&1 \
    && [ -x "$BUILD"/bench_toeplitz ]; then
  echo "== bench_toeplitz ($FILTER) =="
  "$BUILD"/bench_toeplitz --benchmark_filter="$FILTER" \
    --benchmark_format=json > "$BUILD"/bench_toeplitz.json
  TOEPLITZ_JSON=$(cat "$BUILD"/bench_toeplitz.json)
fi

{
  printf '{"schema":"qkdpp-bench-v1","unit":"blocks_per_s",'
  printf '"pipeline_e2e":%s,' "$PIPELINE_JSON"
  printf '"reconcile":%s,' "$RECONCILE_JSON"
  printf '"multilink":%s,' "$MULTILINK_JSON"
  printf '"scenarios":%s,' "$SCENARIOS_JSON"
  printf '"key_delivery":%s,' "$KEY_DELIVERY_JSON"
  printf '"network":%s,' "$NETWORK_JSON"
  printf '"chaos":%s,' "$CHAOS_JSON"
  printf '"orchestrator_scale":%s,' "$SCALE_JSON"
  printf '"toeplitz":%s}\n' "$TOEPLITZ_JSON"
} > BENCH_pipeline.json
echo "wrote BENCH_pipeline.json"

if [ "${QKDPP_BENCH_NO_GATE:-0}" != "1" ] && [ -f bench/baseline.json ]; then
  if command -v python3 >/dev/null 2>&1; then
    echo "== bench_compare (vs bench/baseline.json) =="
    python3 scripts/bench_compare.py bench/baseline.json BENCH_pipeline.json
  else
    echo "warning: python3 not found, skipping baseline comparison" >&2
  fi
fi
