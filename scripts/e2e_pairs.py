#!/usr/bin/env python3
"""Alternating perfbench pairs of two git revisions, written as BENCH_e2e.json.

Usage, from the repository root:

    python3 scripts/e2e_pairs.py --base HEAD~1 --change HEAD \\
        --pairs 10 --seed 101 --out BENCH_e2e.json

Each revision is exported with `git archive` into the work directory
(the repository's own worktree and index are left alone). Every run is
the benchmark's own command, `bash perfbench/run.sh`, inside a side's
tree: its first run builds perfbench into that tree's .bench_build/,
later ones hit the build cache, and the run length is perfbench's
default. For each workload, pair i runs both sides with run seed
`--seed` + i, the base first on even pairs and the change first on odd
ones. With `--traced`, one traced run per side and workload (seed
`--seed`) adds its per-layer metrics.

For every end-to-end metric BENCHMARK.json declares, the output holds
each side's values, median and quartiles, the pairs the change won (ties
count for neither) and a verdict:
  - "gain": the change's answers are correct, it fails no more
    operations than the base, it won at least nine tenths of the pairs,
    and its median is better than the base's by more than the base's
    quartile distance;
  - "worse": the change's median is worse than the base's by more than
    the metric's bound (a fraction of the base's median);
  - "unresolved": neither, and a side's quartile distance exceeds the
    bound times its median, unless every change run beats every base run;
  - "within bound": otherwise.
A run whose answers fail their check makes its workload's `correct`
false. Only the Python standard library is used.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Extracts the tree of rev into dest, which appears only once whole."""
    part = dest + ".part"
    shutil.rmtree(part, ignore_errors=True)
    os.makedirs(part)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                       check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(part)  # a tree of this repository
    os.rename(part, dest)


def run(tree, workload, seed, trace):
    """Runs perfbench/run.sh once in tree and returns perfbench's closing
    JSON object, with the report's host line (nproc, GOMAXPROCS, Go
    version, workers) added as "host"."""
    # perfbench's peak_rss_mb is getrusage's ru_maxrss, which survives
    # exec: a process started straight from this interpreter reports at
    # least the interpreter's resident set. A shell that must fork (its
    # last command is `exit`) starts run.sh from the shell's small image.
    lines = subprocess.run(
        ["/bin/sh", "-c", 'bash perfbench/run.sh "$@"; exit $?', "sh",
         "-workload", workload, "-seed", str(seed), "-trace", str(trace)],
        cwd=tree, check=True, capture_output=True,
        text=True).stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["host"] = next((l for l in lines if l.startswith("host:")), None)
    return res


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(metric, base, change, correct, failed):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    bq, cq = quartiles(base), quartiles(change)
    wins = sum(better(c, b) for b, c in zip(base, change))
    pairs = len(base)
    bound = metric["bound"]
    worse_by = (cq[1] - bq[1]) / bq[1] if lower else (bq[1] - cq[1]) / bq[1]
    spread = max((bq[2] - bq[0]) / bq[1] if bq[1] else 0,
                 (cq[2] - cq[0]) / cq[1] if cq[1] else 0)
    dominates = all(better(c, b) for c in change for b in base)
    if (correct["change"] and failed["change"] <= failed["base"]
            and wins >= 0.9 * pairs and worse_by < 0
            and abs(cq[1] - bq[1]) > bq[2] - bq[0]):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    side = lambda xs, q: {"values": xs, "q1": q[0], "median": q[1], "q3": q[2]}
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": side(base, bq), "change": side(change, cq),
        "ratio": cq[1] / bq[1] if bq[1] else None,
        "pairs": pairs, "wins": wins, "verdict": verdict,
    }


def host_facts():
    model, flags = "", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and not model:
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = val.split()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "go": subprocess.run(["go", "env", "GOVERSION"], check=True,
                             capture_output=True, text=True).stdout.strip(),
        "os": platform.system().lower(), "arch": platform.machine(),
        "cpu_model": model or None,
        "fma": ("fma" in flags) if flags else None,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="run seed of pair 0")
    ap.add_argument("--workloads", default="",
                    help="comma-separated workloads (default: all of BENCHMARK.json)")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per side and workload")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".e2e_build"))
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]

    sides = {}
    for side in ("base", "change"):
        rev = getattr(args, side)
        sha = git("rev-parse", rev)
        tree = os.path.join(args.workdir, side + "-" + sha[:12])
        if not os.path.exists(tree):
            export(sha, tree)
        sides[side] = {"rev": sha, "subject": git("log", "-1", "--format=%s", sha),
                       "tree": tree}

    report = {
        "base": {k: sides["base"][k] for k in ("rev", "subject")},
        "change": {k: sides["change"][k] for k in ("rev", "subject")},
        "host": host_facts(),
        "runs": {"pairs": args.pairs,
                 "seeds": [args.seed + i for i in range(args.pairs)],
                 "order": "base first on even pairs, change first on odd"},
        "workloads": {},
    }
    for w in workloads:
        vals = {"base": [], "change": []}
        correct = {"base": True, "change": True}
        failed = {"base": 0, "change": 0}
        attempted = {"base": 0, "change": 0}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                res = run(sides[side]["tree"], w, args.seed + i, 0)
                report["host"]["perfbench"] = res["host"]
                vals[side].append(res["metrics"])
                correct[side] = correct[side] and res["correct"]
                failed[side] += res["failed"]
                attempted[side] += res["attempted"]
                print(f"{w} pair {i} {side}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                    for m in bench["end_to_end"]), file=sys.stderr)
        entry = {
            "correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {m["name"]: summarize(
                m, [v[m["name"]]["value"] for v in vals["base"]],
                [v[m["name"]]["value"] for v in vals["change"]],
                correct, failed)
                for m in bench["end_to_end"]},
        }
        if args.traced:
            entry["traced"] = {
                side: {k: v["value"] for k, v in run(
                    sides[side]["tree"], w, args.seed, 1)["metrics"].items()}
                for side in ("base", "change")}
        report["workloads"][w] = entry

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=False)
        f.write("\n")


if __name__ == "__main__":
    main()
