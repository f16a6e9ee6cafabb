#!/usr/bin/env python3
"""End-to-end benchmark of the sensing-to-action loop.

    python3 perfbench/run.py --workload loop_tick --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. Builds the measuring binary from
source on first use (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload, checks its outputs, and prints a short report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero if the build fails or an output check fails. See
perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("loop_tick", "fleet_serve", "ae_train", "fed_round")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds the measuring binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "s2a_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "s2a_perfbench"


def source_digest():
    """Content digest of the library sources: provenance that also works
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def report(raw, res):
    """Human-readable lines before the result line."""
    prov = dict(raw["provenance"])
    print(f"perfbench {raw['workload']} seed={raw['seed']} trace={raw['trace']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if prov.get("pool_threads", 1) > 1 and not prov.get("parallel_resolved"):
        print("warning: fewer cores than pool threads; multi-thread figures unresolved")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    if not raw["trace"]:
        print(f"  {'op_p99_ms':34s} {metrics.tail_ms(raw):14.6g} ms (not gated)")
        print(f"  latency over {len(raw['op_ms'])} timed ops in {raw['wall_s']:.2f} s")
        frac = metrics.failed_frac(raw["attempted"], raw["failed"])
        print(f"  {'failed_frac':34s} {frac:14.6g} frac")
        for name, v in raw["named_quality"].items():
            print(f"  {name:34s} {v:14.6g} (quality detail)")
    else:
        traced_p50, total, err = metrics.reconcile(raw)
        print(f"  reconcile: self layers {total:.4f} ms vs traced p50 "
              f"{traced_p50:.4f} ms, error {err:.2%} "
              f"(tolerance {metrics.RECONCILE_TOLERANCE:.0%})")
    for c in raw["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = metrics.load_spec()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_path = out_dir / f"{args.workload}-{args.seed}-t{args.trace}.json"
    raw_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("S2A_OBS", "S2A_TRACE", "S2A_THREADS")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    try:
        subprocess.run(cmd, check=True, env=env, timeout=RUN_TIMEOUT_S,
                       stdout=sys.stderr)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    raw["provenance"]["commit"] = commit()
    raw["provenance"]["src_digest"] = source_digest()

    try:
        res = metrics.result(raw, spec, bool(args.trace))
    except (KeyError, ValueError) as e:
        log(f"invalid result: {e}")
        return 1
    report(raw, res)
    with open(raw_path.with_suffix(".result.json"), "w") as f:
        json.dump({"provenance": raw["provenance"], "info": raw["info"],
                   "checks": raw["checks"], "named_quality": raw["named_quality"],
                   "fail_reasons": raw["fail_reasons"], **res}, f, indent=1)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
