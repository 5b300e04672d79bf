#!/bin/sh
# Run every output a "no behaviour change" refactor must keep byte-identical.
#
#   tools/byte_identical.sh REGULATE BENCH OUT
#
# REGULATE and BENCH are one build's _build/default/{bin/regulate,bench/main}.exe
# and OUT a fresh directory. Run it once against a build of the parent commit
# and once against the change, then `diff -r` the two OUT directories. The
# "perfbench task digests" test of the same build (test/test_main.exe, found
# beside REGULATE) must pass; its verdict is in OUT/core13.out.
# About 17 minutes on a 2-vCPU VM; keep the machine otherwise idle, because
# `lint` and `bench` solve the MILP at its default 120 s wall budget and a
# loaded CPU can change which node the search stops at.
set -u
[ $# -eq 3 ] || { echo "usage: $0 REGULATE BENCH OUT" >&2; exit 2; }
R=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
B=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
T=$(dirname "$(dirname "$R")")/test/test_main.exe
mkdir -p "$3"
OUT=$(cd "$3" && pwd)
KS="insertion_sort stencil_2d covariance gsum gsumif gaussian matrix mvt gemver"

for k in $KS; do for f in iterative baseline; do
  "$R" flow $k --flavor $f --digest --milp-nodes 200 --milp-budget-s 1e9 \
     --trace "$OUT/t.json" > "$OUT/flow.$k.$f.out" 2>/dev/null
  # every --trace counter, plus span names and call counts (no times)
  python3 -c "import json; d=json.load(open('$OUT/t.json'))['otherData']; \
print(json.dumps(d['counters'], sort_keys=True)); \
print(sorted((s['name'], s['calls']) for s in d['summary']))" > "$OUT/flow.$k.$f.counters"
done; done
rm -f "$OUT/t.json"
(cd "$OUT" && "$B" table1 ablation-slack --jobs 2 --kernels gsum,gsumif > bench.out 2>/dev/null)
"$R" lint --json --cycle-cap 2048 $KS > "$OUT/lint.json"
"$R" verify --json $KS > "$OUT/verify.json"
"$R" absint --json $KS > "$OUT/absint.json"
# tv and fuzz carry one wall-clock field each: drop it before diffing
nowall() { python3 -c "import json,sys
def s(o):
    if isinstance(o, dict): return {k: s(v) for k, v in o.items() if k not in ('wall_ms', 'duration_s')}
    return [s(v) for v in o] if isinstance(o, list) else o
print(json.dumps(s(json.load(sys.stdin)), sort_keys=True, indent=1))"; }
"$R" tv --json gsum | nowall > "$OUT/tv.json"
"$R" fuzz --seeds 20 --json "$OUT/fuzz.raw" > /dev/null 2>&1
nowall < "$OUT/fuzz.raw" > "$OUT/fuzz.json"
rm -f "$OUT/fuzz.raw"
# the verdict only: the test list and timings differ between builds
"$T" test core 13 > /dev/null 2>&1 && echo "core 13 passed" > "$OUT/core13.out" \
  || echo "core 13 FAILED" > "$OUT/core13.out"
