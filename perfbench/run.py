#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The executable is built with dune,
with dune's shared cache disabled so that the build writes only under
_build/; then it replaces this process, so its exit code and standard
output (the last line is the JSON result) are the command's own.
Outside a checkout (no dune-project or lib/ beside perfbench/) the
command fails without printing a result.

--self-test checks the benchmark's plumbing in well under a minute: it
runs every workload of BENCHMARK.json on one gsum task with a tiny MILP
budget, checks that each run emits exactly the metrics BENCHMARK.json
names, with their units, and that a planted digest mismatch fails each
workload.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
SMOKE = ["--seed", "1", "--seconds", "0", "--tasks", "gsum.iterative", "--milp-nodes", "20"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: not a checkout of the repository: no dune-project and lib/ at " + ROOT)
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run([dune, "build", "--root", ROOT, "./perfbench/main.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")


def run_exe(args):
    """Run the benchmark on the given arguments; return (exit code, result, stderr)."""
    out = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None, out.stderr


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, res, err = run_exe(["--workload", name, "--trace", trace] + SMOKE)
            where = "%s --trace %s" % (name, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d\n%s" % (where, code, err))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            if not (res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: correct=%s attempted=%s failed=%s"
                                % (where, res["correct"], res["attempted"], res["failed"]))
            want = {m["name"]: m["unit"] for m in metrics}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: missing %s, extra or "
                                "wrong unit %s" % (where, sorted(set(want.items()) - set(got.items())),
                                                   sorted(set(got.items()) - set(want.items()))))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (where, k))
                elif trace == "0" and v["value"] <= 0:
                    problems.append("%s: end-to-end metric %s is %s" % (where, k, v["value"]))
        code, res, _ = run_exe(["--workload", name, "--trace", "0", "--plant-mismatch"] + SMOKE)
        if code == 0 or res is None or res["correct"] is not False or res["failed"] < 1:
            problems.append("%s: a planted digest mismatch did not fail the run (exit %d, %s)"
                            % (name, code, res and {k: res[k] for k in ("correct", "failed")}))
        print("self-test: %s checked" % name, flush=True)
    for p in problems:
        print("self-test: FAILED " + p, file=sys.stderr)
    print("self-test: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
