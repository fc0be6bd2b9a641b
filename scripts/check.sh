#!/usr/bin/env sh
# Tier-1 verify: configure, build, run the test suite, then the smoke runs
# (the same script CI executes, so local and CI never drift).
#
# Env knobs:
#   QKDPP_CHECK_SANITIZE=1     additionally build and run everything under
#                              ASan+UBSan (separate build tree) - the
#                              word-twiddling kernels (clmul, BitVec
#                              select/gather) are exactly the kind of code
#                              where shift and masking bugs hide, and the
#                              sanitizers catch them deterministically.
#   QKDPP_CHECK_SANITIZE=only  sanitizer tree only (the CI sanitize job).
#   QKDPP_CHECK_LABELS         ctest -L regex, e.g. 'unit|integration' to
#                              skip the slower service tier (CI tier-1 uses
#                              this so a hung service test cannot stall the
#                              runner; the sanitize job runs everything).
#   QKDPP_CHECK_BUILD_TYPE     CMAKE_BUILD_TYPE for the main tree (default
#                              Release). The CI matrix runs Debug legs with
#                              this; they use a per-type build dir so a
#                              local Release tree is not clobbered.
#   QKDPP_CHECK_WERROR=1       configure with -DQKDPP_WERROR=ON (the CI
#                              clang leg promotes warnings to errors).
#   QKDPP_CHECK_SMOKE=0        skip the smoke runs (the CI Debug legs do:
#                              at -O0 on a 4-vCPU host the smoke takes
#                              ~37 s, its n = 4096 PEG codes 0.2-1.8 s
#                              each to build, while ctest -j4 runs the
#                              unit and integration tiers in ~33 s; those
#                              tiers still cover both).
set -eu
cd "$(dirname "$0")/.."

smoke() {
  # Smoke runs shared by CI and local checks, one per example binary: the
  # multi-link orchestrator under real concurrency, the dynamic-link
  # scenario matrix with short timelines (adaptive re-planning + device
  # hot-remove included), and the ETSI-shaped key-delivery API end to end
  # through the JSON dispatcher (self-checks master/slave key identity and
  # the 400/401/503 error model; a mismatch exits non-zero), and the
  # trusted-node relay network (non-adjacent SAE delivery with a
  # mid-stream admin outage re-routed around; self-checks failover +
  # per-span bit conservation), and the two two-party session examples,
  # which drive the session's reconcile exchange end to end (wan_link fails
  # on an aborted session or unequal keys, kms_demo on a key that does not
  # decrypt on the peer), and the four single-process block examples:
  # quickstart (fails on an aborted block), hetero_offload, the
  # intercept-resend sweep of eavesdropper_demo, and a short metro_link
  # sweep (2^19 pulses per block). In Release on a 4-vCPU host the last
  # four take about 0.1, 0.3, 0.9 and 0.4 s.
  echo "== smoke: multi_link ($1) =="
  "$1"/multi_link 2
  echo "== smoke: dynamic_link ($1) =="
  "$1"/dynamic_link all 4
  echo "== smoke: key_delivery_demo ($1) =="
  "$1"/key_delivery_demo 2
  echo "== smoke: network_relay ($1) =="
  "$1"/network_relay 2
  echo "== smoke: wan_link ($1) =="
  "$1"/wan_link
  echo "== smoke: kms_demo ($1) =="
  "$1"/kms_demo
  echo "== smoke: quickstart ($1) =="
  "$1"/quickstart
  echo "== smoke: hetero_offload ($1) =="
  "$1"/hetero_offload
  echo "== smoke: eavesdropper_demo ($1) =="
  "$1"/eavesdropper_demo
  echo "== smoke: metro_link ($1) =="
  "$1"/metro_link 19
}

run_tree() {
  tree=$1
  shift
  cmake -B "$tree" -S . "$@"
  cmake --build "$tree" -j
  # -j needs an explicit value: a bare `ctest -j -L foo` swallows `-L` as
  # the parallelism argument and silently runs the whole suite unfiltered.
  if [ -n "${QKDPP_CHECK_LABELS:-}" ]; then
    (cd "$tree" && ctest --output-on-failure -j "$(nproc)" \
      -L "$QKDPP_CHECK_LABELS")
  else
    (cd "$tree" && ctest --output-on-failure -j "$(nproc)")
  fi
  if [ "${QKDPP_CHECK_SMOKE:-1}" != "0" ]; then
    smoke "$tree"
  fi
}

SANITIZE=${QKDPP_CHECK_SANITIZE:-0}
BUILD_TYPE=${QKDPP_CHECK_BUILD_TYPE:-Release}

MAIN_ARGS="-DCMAKE_BUILD_TYPE=$BUILD_TYPE"
if [ "${QKDPP_CHECK_WERROR:-0}" = "1" ]; then
  MAIN_ARGS="$MAIN_ARGS -DQKDPP_WERROR=ON"
fi

if [ "$SANITIZE" != "only" ]; then
  # Non-Release trees get their own build dir so switching legs (or a CI
  # matrix) never replays a full reconfigure over a developer's tree.
  if [ "$BUILD_TYPE" = "Release" ]; then
    run_tree build $MAIN_ARGS
  else
    run_tree "build-$(echo "$BUILD_TYPE" | tr '[:upper:]' '[:lower:]')"       $MAIN_ARGS
  fi
fi

if [ "$SANITIZE" = "1" ] || [ "$SANITIZE" = "only" ]; then
  echo "== ASan+UBSan pass =="
  run_tree build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DQKDPP_SANITIZE=ON
fi
