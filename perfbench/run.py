#!/usr/bin/env python3
"""End-to-end benchmark runner for mixedp.

Run one workload (builds the benchmark binary from source first):

    python3 perfbench/run.py --workload loglik-tight --seed 1 --seconds 10 --trace 0

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. The full result, stamped with
the host fingerprint, is saved to perfbench/out/<workload>/seed<N>-trace<T>.json
(and, for --trace 1, the Chrome trace beside it).

Compare two saved result sets (copies of perfbench/out), or summarise one:

    python3 perfbench/run.py compare BASE_DIR [NEW_DIR]

Run from the repository root. Workloads and metrics are defined in
BENCHMARK.json; the reasoning behind them is in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SIMD_FLAGS = ("avx2", "avx512f", "f16c", "avx512fp16")
# A run must finish within 180 s; leave room for start-up and output.
RUN_TIMEOUT_S = 170


def load_definition():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- fingerprint


def parse_cpuinfo(text):
    """CPU model name and the SIMD flags that matter here, from /proc/cpuinfo."""
    model, flags = "unknown", set()
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and model == "unknown":
            model = value.strip()
        elif key == "flags" and not flags:
            flags = set(value.split())
    return {"cpu_model": model, "simd": {f: f in flags for f in SIMD_FLAGS}}


def parse_rustc_version(text):
    """'rustc 1.80.0 (051478957 2024-07-21)' -> '1.80.0'; 'unknown' otherwise."""
    parts = text.split()
    if len(parts) >= 2 and parts[0] == "rustc":
        return parts[1]
    return "unknown"


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def fingerprint(seed):
    try:
        cpu = parse_cpuinfo(Path("/proc/cpuinfo").read_text())
    except OSError:
        cpu = {"cpu_model": platform.processor() or "unknown", "simd": {}}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        **cpu,
        "nproc": nproc,
        "rustc": parse_rustc_version(command_output(["rustc", "-V"])),
        # The benchmark may run from an exported tree that is not a git
        # repository; never pick up an enclosing one.
        "git_sha": ((ROOT / ".git").exists() and command_output(["git", "rev-parse", "HEAD"]))
        or "unknown",
        "seed": seed,
    }


# ----------------------------------------------------------------------- run


def build():
    """Build the benchmark binary; returns its path. Cargo runs from the
    repository root so the repository's .cargo/config.toml applies."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


def run(args):
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {names}")
    exe = build()
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    cmd = [
        str(exe),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--chrome-trace", str(out_dir / f"{stem}.trace.json"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perfbench: {args.workload} produced no result (exit {proc.returncode})")
    full = json.loads(lines[-1])

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in full["metrics"].items()}
    if got != want:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")

    saved = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(args.seed),
        **full,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")
    result = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    if proc.returncode != 0 or not full["correct"]:
        failed = {k: v for k, v in full.get("checks", {}).items() if v != "ok"}
        sys.exit(f"perfbench: {args.workload} failed (exit {proc.returncode}): {failed}")


# ------------------------------------------------------------------- compare


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, better, bound):
    """Classify NEW against BASE for one metric.

    base and new map seed -> value. Pairs are the seeds both sides ran.
    improved: NEW wins at least 9/10 of the pairs (ties count for neither)
    and the medians differ by more than BASE's interquartile range, over at
    least 10 pairs (fewer pairs make it unresolved). worse: NEW's median is worse than BASE's by more than the
    metric's bound. unresolved: BASE's spread is wider than the bound and
    not every NEW run beats every BASE run. Otherwise unchanged.
    """
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    b1, bm, b3 = quartiles(list(base.values()))
    nm = quartiles(list(new.values()))[1]
    gain = sign * (nm - bm)
    if wins >= 0.9 * len(seeds) and gain > (b3 - b1):
        return ("improved" if len(seeds) >= 10 else "unresolved"), wins, len(seeds)
    if -gain > bound * abs(bm):
        return "worse", wins, len(seeds)
    all_better = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    if (b3 - b1) > bound * abs(bm) and not all_better:
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def load_results(directory):
    """{workload: {metric: {seed: value}}} from the untraced runs in a result set."""
    table = {}
    for path in sorted(Path(directory).glob("*/seed*-trace0.json")):
        doc = json.loads(path.read_text())
        if not doc.get("correct"):
            print(f"note: {path} is marked incorrect; skipped", file=sys.stderr)
            continue
        for name, m in doc["metrics"].items():
            table.setdefault(doc["workload"], {}).setdefault(name, {})[doc["seed"]] = m["value"]
    return table


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_dir, new_dir):
    metrics = {m["name"]: m for m in load_definition()["end_to_end"]}
    base = load_results(base_dir)
    new = load_results(new_dir) if new_dir else {}
    if not base:
        sys.exit(f"perfbench: no untraced results under {base_dir}")
    if new_dir:
        print(f"{'workload':14} {'metric':14} {'base median [q1, q3]':34} "
              f"{'new median [q1, q3]':34} {'wins':>7}  verdict")
    else:
        print(f"{'workload':14} {'metric':14} {'median [q1, q3]':34} {'n':>3} "
              f"{'IQR/median':>10}  bound/3")
    for workload in sorted(base):
        for name, spec in metrics.items():
            b = base[workload].get(name)
            if not b:
                continue
            if not new_dir:
                s = spread(list(b.values()))
                ok = "ok" if s < spec["bound"] / 3 else "WIDE"
                print(f"{workload:14} {name:14} {fmt(list(b.values())):34} {len(b):>3} "
                      f"{s:>10.4f}  {ok}")
                continue
            n = new.get(workload, {}).get(name)
            if not n:
                print(f"{workload:14} {name:14} {fmt(list(b.values())):34} {'-':34}")
                continue
            v, wins, pairs = verdict(b, n, spec["better"], spec["bound"])
            print(f"{workload:14} {name:14} {fmt(list(b.values())):34} "
                  f"{fmt(list(n.values())):34} {wins:>3}/{pairs:<3}  {v}")


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new", nargs="?")
        a = p.parse_args(argv[1:])
        compare(a.base, a.new)
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run(p.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
