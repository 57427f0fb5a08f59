#!/usr/bin/env python3
"""Run one NCSw benchmark workload and print its result.

    python3 perfbench/run.py --workload cluster-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources plus the ncsw_perfbench driver) into
.bench_build/perfbench; later calls rebuild incrementally. Each call runs
the workload in a fresh ncsw_perfbench process (which pins itself to one
CPU) with the engine on one thread (NCSW_THREADS=1) and the verifiers off,
then:

  * prints every metric by name and unit, and every correctness check;
  * checks that the simulated and functional results of this seed repeat
    bit-for-bit: against the values committed in perfbench/expected.json
    for the recorded seeds, and against every earlier run of the same seed
    on the same sources in this checkout
    (.bench_build/perfbench/records-<hash of the sources>.json);
  * when any check failed, reports ok_frac as 0: no completed request or
    classification of a failing run counts as check-passing;
  * prints, as its last line, {"correct", "attempted", "failed", "metrics"}
    with the end-to-end metrics (--trace 0) or the per-layer metrics
    (--trace 1), names and units as listed in BENCHMARK.json.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 when the benchmark could not build or run.

`--record` stores this run's digests and deterministic values in
perfbench/expected.json (and replaces this checkout's record of the seed);
use it only when a change is meant to move a simulated or functional
result, and say so in that change.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ncsw_perfbench"
EXPECTED = HERE / "expected.json"
# Sources whose results the records vouch for (expected.json excluded:
# --record rewrites it without changing any result).
SOURCE_SUFFIXES = (".cpp", ".h", ".txt")
RUN_TIMEOUT_S = 170
# Metrics that must repeat bit-for-bit for a seed.
DETERMINISTIC_PREFIXES = ("sim_", "top1_err_", "conf_diff_pct")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            cfg = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
            if cfg.returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed (see {log})")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        made = subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "ncsw_perfbench",
             "-j", jobs],
            stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    if made.returncode != 0 or not BINARY.exists():
        fail(f"build failed (see {log})")


def run_workload(args):
    env = dict(os.environ)
    env["NCSW_THREADS"] = "1"  # at most nproc runnable threads
    env["NCSW_CHECK"] = "off"  # verifier cost is measured explicitly
    env.pop("NCSW_FAST", None)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.setup_reps is not None:
        cmd += ["--setup-reps", str(args.setup_reps)]
    if args.trace:
        spans_path = BUILD / f"spans-{args.workload}-{args.seed}.json"
        cmd += ["--spans-out", str(spans_path)]
    if args.sabotage:
        cmd += ["--sabotage", args.sabotage]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            if proc.returncode != 0:
                break
            return json.loads(line.split(" ", 1)[1])
    fail(f"{args.workload} exited with status {proc.returncode} and no result")


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def write_json_atomic(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    with os.fdopen(fd, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def sources_hash():
    """Hash of the library and benchmark sources this checkout builds."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(result):
    """Everything that must repeat bit-for-bit for this seed."""
    values = {k: repr(m["value"]) for k, m in result["metrics"].items()
              if k.startswith(DETERMINISTIC_PREFIXES)}
    return {"digests": result["digests"], "values": values}


def compare(name, want, got):
    """Check results: one per mismatching field, or one passing check."""
    diffs = []
    for section in ("digests", "values"):
        for key, value in want.get(section, {}).items():
            if got[section].get(key) != value:
                diffs.append(f"{key}: {got[section].get(key)} != {value}")
    return {"name": name, "ok": not diffs,
            "detail": "; ".join(diffs) if diffs else "bit-identical"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-reps", type=int, default=None,
                    help="set-up repetitions (default: the driver's)")
    ap.add_argument("--sabotage", default="",
                    help="break one named check (negative controls)")
    ap.add_argument("--record", action="store_true",
                    help="store this run's results in perfbench/expected.json")
    args = ap.parse_args()

    spec = load_json(ROOT / "BENCHMARK.json", None)
    if spec is None:
        fail("BENCHMARK.json not found at the checkout root")
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {sorted(names)})")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    result = run_workload(args)
    checks = list(result["checks"])

    # Cross-run determinism of the simulated and functional results.
    fp = fingerprint(result)
    if args.sabotage == "records":
        fp["values"] = {k: v + "0" for k, v in fp["values"].items()}
    key = f"{args.workload}/{args.seed}"
    expected = load_json(EXPECTED, {})
    if args.record and not args.sabotage:
        expected.setdefault("runs", {})[key] = fp
        if "canary_labels" in fp["digests"]:
            expected["canary_labels"] = fp["digests"]["canary_labels"]
        write_json_atomic(EXPECTED, expected)
    if key in expected.get("runs", {}):
        checks.append(compare("matches-expected-json", expected["runs"][key], fp))
    canary = expected.get("canary_labels")
    if "canary_labels" in fp["digests"] and canary:
        checks.append({"name": "canary-labels-match-expected",
                       "ok": fp["digests"]["canary_labels"] == canary,
                       "detail": f"{fp['digests']['canary_labels']} vs {canary}"})
    records_path = BUILD / f"records-{sources_hash()}.json"
    records = load_json(records_path, {})
    if key in records and not args.record:
        checks.append(compare("repeats-earlier-runs", records[key], fp))
    elif not args.sabotage:
        records[key] = fp
        write_json_atomic(records_path, records)

    # The metric set this run reports, in BENCHMARK.json's names and units.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and not args.trace:
            checks.append({"name": f"metric-{m['name']}", "ok": False,
                           "detail": "end-to-end metric not measured"})
            continue
        # A layer this workload does not exercise reports 0.
        value = got["value"] if got else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    failed_checks = [c for c in checks if not c["ok"]]
    failed = result["failed"] + sum(
        1 for c in failed_checks if c not in result["checks"])
    if failed_checks and "ok_frac" in metrics:
        metrics["ok_frac"]["value"] = 0.0
    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed_checks,
                      "attempted": max(1, result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failed_checks else 0)


if __name__ == "__main__":
    main()
