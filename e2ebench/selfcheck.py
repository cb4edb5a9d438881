#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark.

    python3 e2ebench/selfcheck.py

Run from the root of a checkout.  Builds the benchmark (as run.py does), then:

1. runs each workload of BENCHMARK.json briefly, untraced and traced, and
   checks that the result line has exactly the keys correct/attempted/failed/
   metrics, names every end-to-end (untraced) or per-layer (traced) metric of
   BENCHMARK.json with its unit, attempts at least one operation and fails
   none;
2. runs each workload with one reference corrupted by a single flipped bit
   and checks that the run reports a failed operation and correct=false, so
   the output checks are shown to bite;
3. copies BENCHMARK.json and e2ebench/ alone into .bench_build/selfcheck-bare
   and checks that the benchmark exits non-zero there without a result line.

Prints one line per check and exits 0 only if every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build recipe)

SECONDS = "1"


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def drive(workload, trace, extra=()):
    cmd = [os.path.join(run.BUILD, "e2e_bench"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", trace,
           "--trace-dir", os.path.join(ROOT, ".bench_build", "traces")] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=180)
    return proc.returncode, result_line(proc.stdout)


def check_report(res, specs):
    """Returns the list of problems with one result line."""
    if res is None:
        return ["no JSON result on the last line"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(res))
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        problems.append("attempted %r" % res.get("attempted"))
    if not isinstance(res.get("failed"), int):
        problems.append("failed %r" % res.get("failed"))
    metrics = res.get("metrics", {})
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        problems.append("metric names differ: missing %s, extra %s" %
                        (sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s unit %r != %r" % (name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s value %r" % (name, m.get("value")))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build():
        print("FAIL build")
        return 1
    ok = True

    def verdict(name, problems):
        nonlocal ok
        ok = ok and not problems
        print("%s %s%s" % ("PASS" if not problems else "FAIL", name,
                           "" if not problems else ": " + "; ".join(problems)))

    for w in bench["workloads"]:
        name = w["name"]
        for trace, specs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            rc, res = drive(name, trace)
            problems = check_report(res, specs)
            if rc != 0:
                problems.append("exit code %d" % rc)
            if res is not None and (res.get("failed") != 0 or res.get("correct") is not True):
                problems.append("failed=%r correct=%r" % (res.get("failed"), res.get("correct")))
            verdict("%s --trace %s reports every metric" % (name, trace), problems)
        rc, res = drive(name, "0", ["--corrupt-reference"])
        problems = check_report(res, bench["end_to_end"])
        if res is not None and not (res.get("failed", 0) >= 1 and res.get("correct") is False):
            problems.append("a corrupted reference went unnoticed (failed=%r correct=%r)" %
                            (res.get("failed"), res.get("correct")))
        verdict("%s counts a corrupted reference as failed" % name, problems)

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    w = bench["workloads"][0]["name"]
    proc = subprocess.run(bench["command"] + ["--workload", w, "--seed", "1", "--seconds",
                                              SECONDS, "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    if result_line(proc.stdout) is not None:
        problems.append("printed a result")
    verdict("without the program sources the benchmark fails", problems)
    shutil.rmtree(bare, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
