#!/usr/bin/env python3
"""CI gate for schema-versioned bench artifacts (BENCH_*.json).

Compares a candidate artifact against a committed baseline
(bench/baselines/) metric by metric.  Each baseline metric carries its own
`threshold_pct` and `higher_is_better` direction:

  * change in the GOOD direction         -> pass (improvements are free)
  * change in the bad direction <= thr   -> pass (noise allowance)
  * change in the bad direction  > thr   -> FAIL
  * threshold_pct == 0                   -> any change, either direction,
                                            beyond 1e-9 relative -> FAIL
                                            (exact/deterministic metrics)
  * metric missing from the candidate    -> FAIL (silently dropping a
                                            gated metric is itself a
                                            regression)
  * manifest build type or flags differ  -> FAIL before any metric is
                                            compared (a Debug run against a
                                            Release baseline measures the
                                            build, not the change)

Extra metrics in the candidate are reported but never fail — add them to
the baseline to start gating them.

Usage:
  check_bench_regression.py BASELINE CANDIDATE [--update]
  check_bench_regression.py --self-test

Exit codes: 0 = pass, 1 = regression or schema error, 2 = usage error.
`--update` rewrites the baseline's metric values (keeping thresholds) from
the candidate — the documented way to bless a new baseline, see
docs/PERFORMANCE.md.
"""

import json
import sys

SCHEMA_VERSION = 1
EXACT_EPS = 1e-9


def load_artifact(path):
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    if "bench" not in doc or not isinstance(doc.get("metrics"), dict):
        raise ValueError(f"{path}: missing 'bench' or 'metrics'")
    return doc


def relative_change(baseline, candidate):
    """Signed relative change, positive = candidate larger."""
    if baseline == 0.0:
        return 0.0 if candidate == 0.0 else float("inf")
    return (candidate - baseline) / abs(baseline)


def compare(baseline, candidate, log=print):
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    if baseline["bench"] != candidate["bench"]:
        failures.append(
            f"bench name mismatch: baseline {baseline['bench']!r} vs "
            f"candidate {candidate['bench']!r}"
        )
        return failures

    base_build = baseline.get("manifest", {}).get("build", {})
    cand_build = candidate.get("manifest", {}).get("build", {})
    for field in ("type", "flags"):
        if base_build.get(field) != cand_build.get(field):
            failures.append(
                f"build {field} mismatch: baseline "
                f"{base_build.get(field)!r} vs candidate "
                f"{cand_build.get(field)!r}"
            )
    if failures:
        return failures

    base_tool = baseline.get("manifest", {}).get("tool")
    cand_tool = candidate.get("manifest", {}).get("tool")
    if base_tool and cand_tool and base_tool != cand_tool:
        log(
            f"  note: manifest tool differs ({base_tool!r} vs {cand_tool!r})"
            " — comparing a different invocation mode?"
        )

    cand_metrics = candidate["metrics"]
    for name, spec in sorted(baseline["metrics"].items()):
        if name not in cand_metrics:
            failures.append(f"{name}: missing from candidate")
            continue
        base_value = float(spec["value"])
        cand_value = float(cand_metrics[name]["value"])
        higher_is_better = bool(spec.get("higher_is_better", False))
        threshold_pct = float(spec.get("threshold_pct", 0.0))
        change = relative_change(base_value, cand_value)
        # Positive `bad` = movement in the regressing direction.
        bad = -change if higher_is_better else change

        unit = spec.get("unit", "")
        desc = (
            f"{name}: {base_value:g} -> {cand_value:g} {unit}"
            f" ({change * 100.0:+.2f}%)"
        )
        if threshold_pct == 0.0:
            if abs(change) > EXACT_EPS:
                failures.append(f"{desc}, expected exact match")
            else:
                log(f"  ok    {desc} [exact]")
        elif bad * 100.0 > threshold_pct:
            failures.append(f"{desc}, exceeds {threshold_pct:g}% threshold")
        else:
            log(f"  ok    {desc} [<= {threshold_pct:g}%]")

    for name in sorted(set(cand_metrics) - set(baseline["metrics"])):
        log(f"  note: {name} not in baseline (ungated)")
    return failures


def update_baseline(baseline_path, baseline, candidate):
    """Blesses candidate values into the baseline, keeping its thresholds
    and directions; copies over new metrics and the fresh manifest."""
    for name, spec in candidate["metrics"].items():
        if name in baseline["metrics"]:
            baseline["metrics"][name]["value"] = spec["value"]
        else:
            baseline["metrics"][name] = spec
    if "manifest" in candidate:
        baseline["manifest"] = candidate["manifest"]
    with open(baseline_path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"updated baseline: {baseline_path}")


def self_test():
    """Negative test: an injected over-threshold regression must fail, and
    sub-threshold noise / improvements / exact matches must pass."""
    baseline = {
        "schema_version": 1,
        "bench": "selftest",
        "manifest": {"build": {"type": "Release", "flags": "ndebug"}},
        "metrics": {
            "throughput": {
                "value": 100.0,
                "unit": "req/s",
                "higher_is_better": True,
                "threshold_pct": 10.0,
            },
            "latency": {
                "value": 10.0,
                "unit": "ms",
                "higher_is_better": False,
                "threshold_pct": 10.0,
            },
            "replicas": {
                "value": 42.0,
                "unit": "count",
                "higher_is_better": True,
                "threshold_pct": 0.0,
            },
        },
    }

    def run(mutate):
        cand = json.loads(json.dumps(baseline))
        mutate(cand["metrics"], cand["manifest"]["build"])
        return compare(baseline, cand, log=lambda *_: None)

    cases = [
        # (description, mutation, should_fail)
        ("unchanged candidate passes", lambda m, b: None, False),
        (
            "injected 20% throughput drop fails (> 10% threshold)",
            lambda m, b: m["throughput"].update(value=80.0),
            True,
        ),
        (
            "5% throughput drop passes (<= 10% threshold)",
            lambda m, b: m["throughput"].update(value=95.0),
            False,
        ),
        (
            "throughput improvement passes",
            lambda m, b: m["throughput"].update(value=200.0),
            False,
        ),
        (
            "injected 20% latency rise fails (lower-is-better)",
            lambda m, b: m["latency"].update(value=12.0),
            True,
        ),
        (
            "latency improvement passes",
            lambda m, b: m["latency"].update(value=5.0),
            False,
        ),
        (
            "exact metric drift fails in either direction",
            lambda m, b: m["replicas"].update(value=43.0),
            True,
        ),
        (
            "missing gated metric fails",
            lambda m, b: m.pop("latency"),
            True,
        ),
        (
            "Debug candidate against a Release baseline fails",
            lambda m, b: b.update(type="Debug", flags="assertions"),
            True,
        ),
        (
            "same build type with other flags fails",
            lambda m, b: b.update(flags="ndebug,asan"),
            True,
        ),
    ]
    ok = True
    for desc, mutate, should_fail in cases:
        failures = run(mutate)
        got_fail = bool(failures)
        status = "ok" if got_fail == should_fail else "SELF-TEST BUG"
        if got_fail != should_fail:
            ok = False
        print(f"  {status}: {desc}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if "--self-test" in argv:
        return self_test()
    args = [a for a in argv if a != "--update"]
    update = "--update" in argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, candidate_path = args
    try:
        baseline = load_artifact(baseline_path)
        candidate = load_artifact(candidate_path)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print(f"bench {baseline['bench']}: {baseline_path} vs {candidate_path}")
    failures = compare(baseline, candidate)
    for f in failures:
        print(f"  FAIL  {f}")
    if update:
        update_baseline(baseline_path, baseline, candidate)
        return 0
    if failures:
        print(f"{len(failures)} regression(s) detected")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
