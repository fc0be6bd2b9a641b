#!/usr/bin/env python3
"""Compare a BENCH_pipeline.json run against a committed baseline.

The CI bench-gate job (and the tail of scripts/run_benches.sh) calls this
with bench/baseline.json vs the fresh BENCH_pipeline.json and fails the
build on regressions beyond the tolerance.

Two metric classes:

* gating - machine-independent numbers: the e2e bench's *modeled*
  blocks/s (device model arithmetic, not wall-clock), the deterministic
  secret-bit totals of the multilink and scenario benches, and the
  scenario bench's own adaptive>=static gate. A regression beyond
  --tolerance (default 25%) fails the run on any machine.
* advisory - wall-clock rates (cpu blocks/s, multilink aggregate bits/s).
  These swing with the host, so they only warn unless --strict-wall is
  given (useful locally, where the baseline was produced on this machine).

The committed baseline is produced by the --quick posture, so a full-length
local run can only beat it. Regenerate after an intentional perf change:

    scripts/run_benches.sh --quick && cp BENCH_pipeline.json bench/baseline.json

Exit codes: 0 ok, 1 regression, 2 usage/malformed input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def extract(doc):
    """Flatten one BENCH_pipeline.json into {metric: (value, gating)}."""
    metrics = {}

    e2e = doc.get("pipeline_e2e") or {}
    rows = [r for r in e2e.get("rows", []) if r.get("ok")]
    if rows:
        # Modeled throughput is pure device-model arithmetic: comparable
        # across machines, which is what makes it gateable in CI.
        metrics["e2e_hetero_blocks_per_s"] = (
            mean(r["hetero_blocks_per_s"] for r in rows), True)
        metrics["e2e_cpu_model_blocks_per_s"] = (
            mean(r["cpu_model_blocks_per_s"] for r in rows), True)
        metrics["e2e_cpu_wall_blocks_per_s"] = (
            mean(r["cpu_blocks_per_s"] for r in rows), False)

    reconcile = doc.get("reconcile") or {}
    batched_rows = [r.get("batched") or {} for r in reconcile.get("rows", [])]
    batched_rows = [b for b in batched_rows if b.get("ok")]
    if batched_rows:
        # Reconcile-stage throughput of the batched decoder. Wall-clock, but
        # gated anyway: this is the PR-trajectory headline (the bench itself
        # also hard-gates an absolute 10 km floor via its exit code), and
        # the 25% tolerance absorbs ordinary host-to-host spread. Decode
        # behaviour (iterations, early exits) is advisory trend data.
        metrics["reconcile_batched_items_per_s"] = (
            mean(b["reconcile_items_per_s"] for b in batched_rows), True)
        ten_km = [r for r in reconcile.get("rows", [])
                  if r.get("km") == 10 and (r.get("batched") or {}).get("ok")]
        if ten_km:
            metrics["reconcile_items_per_s_10km"] = (
                float(ten_km[0]["batched"]["reconcile_items_per_s"]), True)
        metrics["reconcile_iterations_mean"] = (
            mean(b.get("iterations_mean", 0.0) for b in batched_rows), False)
        metrics["reconcile_early_exit_rate"] = (
            mean(b.get("early_exit_rate", 0.0) for b in batched_rows), False)

    multilink = doc.get("multilink") or {}
    aggregate = multilink.get("aggregate") or {}
    if aggregate:
        metrics["multilink_secret_bits"] = (
            float(aggregate.get("secret_bits", 0)), True)
        metrics["multilink_wall_bits_per_s"] = (
            float(aggregate.get("secret_bits_per_s", 0.0)), False)

    scenarios = doc.get("scenarios") or {}
    for row in scenarios.get("rows", []):
        name = row.get("scenario", "?")
        adaptive = row.get("adaptive") or {}
        metrics[f"scenario_{name}_adaptive_secret_bits"] = (
            float(adaptive.get("secret_bits", 0)), True)

    key_delivery = doc.get("key_delivery") or {}
    if key_delivery:
        # Delivered bits are near-deterministic per seed (residual-buffer
        # splits race by at most a few key sizes): gateable. Request and
        # delivery rates are wall-clock: advisory.
        metrics["key_delivery_delivered_bits"] = (
            float(key_delivery.get("delivered_bits", 0)), True)
        metrics["key_delivery_wall_requests_per_s"] = (
            float(key_delivery.get("requests_per_s", 0.0)), False)
        metrics["key_delivery_wall_bits_per_s"] = (
            float(key_delivery.get("delivered_bits_per_s", 0.0)), False)

    network = doc.get("network") or {}
    if network:
        # Fixed per-pair demand makes delivered bits deterministic when the
        # network can carry them (the bench sizes demand to fit the outage
        # cut), and the clean/outage availability ratio is the re-route
        # guarantee itself: both gateable. Wall rate is advisory.
        metrics["network_delivered_bits_clean"] = (
            float(network.get("delivered_bits_clean", 0)), True)
        metrics["network_delivered_bits_outage"] = (
            float(network.get("delivered_bits_outage", 0)), True)
        metrics["network_availability_ratio"] = (
            float(network.get("availability_ratio", 0.0)), True)
        metrics["network_wall_bits_per_s"] = (
            float(network.get("delivered_bits_per_s", 0.0)), False)

    chaos = doc.get("chaos") or {}
    if chaos:
        # Secret-bit totals are seeded and deterministic (the bench itself
        # gates byte-identity across clean/chaotic/replay): gateable. The
        # goodput ratio and delivery volume are wall-clock-shaped: advisory
        # (the bench already hard-gates ratio >= 0.7 via its exit code).
        metrics["chaos_clean_secret_bits"] = (
            float(chaos.get("clean_secret_bits", 0)), True)
        metrics["chaos_chaotic_secret_bits"] = (
            float(chaos.get("chaotic_secret_bits", 0)), True)
        metrics["chaos_wall_goodput_ratio"] = (
            float(chaos.get("goodput_ratio", 0.0)), False)
        delivery = chaos.get("delivery") or {}
        metrics["chaos_delivered_bits"] = (
            float(delivery.get("delivered_bits", 0)), True)

    scale = (doc.get("orchestrator_scale") or {}).get("scale") or {}
    if scale:
        # Secret-bit totals across the 1->128 sweep are seed-deterministic
        # (engine fast path): gateable. The 128/8 rate ratio and absolute
        # rates are wall-clock and depend on the host's core count: the
        # bench itself hard-gates the core-normalized ratio via its exit
        # code, so here they are advisory trend lines.
        metrics["orchestrator_scale_secret_bits"] = (
            float(scale.get("secret_bits_total", 0)), True)
        metrics["orchestrator_scale_wall_rate_128"] = (
            float(scale.get("rate_128", 0.0)), False)
        metrics["orchestrator_scale_wall_ratio_128_8"] = (
            float(scale.get("ratio", 0.0)), False)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression on gating "
                             "metrics (default 0.25)")
    parser.add_argument("--strict-wall", action="store_true",
                        help="gate wall-clock metrics too (same-machine "
                             "baselines only)")
    args = parser.parse_args()

    baseline = extract(load(args.baseline))
    current_doc = load(args.current)
    current = extract(current_doc)

    failures = []
    print(f"{'metric':44s} {'baseline':>14s} {'current':>14s} {'ratio':>7s}")
    for name, (base_value, gating) in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            print(f"{name:44s} {base_value:14.1f} {'MISSING':>14s}")
            continue
        value = current[name][0]
        ratio = value / base_value if base_value else float("inf")
        enforced = gating or args.strict_wall
        tag = ""
        if base_value and value < base_value * (1.0 - args.tolerance):
            if enforced:
                tag = "  << REGRESSION"
                failures.append(
                    f"{name}: {value:.1f} < {base_value:.1f} "
                    f"(-{(1 - ratio) * 100:.1f}%, tolerance "
                    f"{args.tolerance * 100:.0f}%)")
            else:
                tag = "  (wall-clock, advisory)"
        print(f"{name:44s} {base_value:14.1f} {value:14.1f} {ratio:6.2f}x"
              f"{tag}")

    reconcile_gate = (current_doc.get("reconcile") or {}).get("gate") or {}
    if reconcile_gate and not reconcile_gate.get("ok", True):
        failures.append("bench_reconcile gate ok=false (batched decoder "
                        "below the 10 km throughput floor)")

    scenarios = current_doc.get("scenarios") or {}
    if scenarios and not scenarios.get("gate_ok", True):
        failures.append("bench_scenarios gate_ok=false "
                        "(adaptive lost to static placement)")

    key_delivery = current_doc.get("key_delivery") or {}
    if key_delivery and not key_delivery.get("gate_ok", True):
        failures.append("bench_key_delivery gate_ok=false "
                        "(duplicate or lost key deliveries)")

    network = current_doc.get("network") or {}
    if network and not network.get("gate_ok", True):
        failures.append("bench_network gate_ok=false (duplicate/lost bits "
                        "or outage availability below 0.9x clean)")

    scale = (current_doc.get("orchestrator_scale") or {}).get("scale") or {}
    if scale:
        if not scale.get("scale_gate_ok", True):
            failures.append(
                "bench_orchestrator_scale scale_gate_ok=false (128-link "
                "aggregate below the core-normalized scaling gate)")
        if not scale.get("conservation_ok", True):
            failures.append("bench_orchestrator_scale conservation_ok=false "
                            "(lost or duplicate bits in the sharded stores)")
        if not scale.get("determinism_ok", True):
            failures.append("bench_orchestrator_scale determinism_ok=false "
                            "(same-seed rerun was not byte-identical)")

    if failures:
        print("\nbench gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbench gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
