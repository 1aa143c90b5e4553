#!/bin/sh
# Refactor gate: check that the working tree behaves exactly as a parent
# commit.  Run from the repository root:
#
#   bench/same_behaviour.sh PARENT [ID ...]
#
# It unpacks PARENT with `git archive` into a work directory, builds it
# and the working tree, then compares, parent against change:
#   - the `tables` and `metrics` of `fpb exp ID --json` (quick scale) for
#     each ID (default: fig3b fig10 fig11 fig12 fig13 fig14 fig17
#     ext-varkey batch ablation); `wall_s` is left out;
#   - the stdout of `fpb crashtest --tiny --seed 42` and `fpb chaos --tiny`;
#   - every `sim_*` metric, `failed` and `correct` of fpbench's summary for
#     each workload of BENCHMARK.json at seeds 1, 2 and 3.
# It exits non-zero on any difference and names each one.
#
# Environment: WORKDIR (default: a fresh `mktemp -d`) holds the parent's
# tree and every output; SECONDS_PER_RUN (default 10, the benchmark's
# run length) is fpbench's `--seconds`.  Each step runs the two trees side
# by side, so the host metrics of these runs mean nothing.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: bench/same_behaviour.sh PARENT [ID ...]" >&2
  exit 2
fi
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "same_behaviour.sh: run from the repository root" >&2
  exit 2
fi
parent=$1
shift
ids=${*:-"fig3b fig10 fig11 fig12 fig13 fig14 fig17 ext-varkey batch ablation"}
work=${WORKDIR:-$(mktemp -d)}
seconds=${SECONDS_PER_RUN:-10}
change=$(pwd)
base="$work/parent"
fail=0

differ() {
  echo "DIFFERS: $*"
  fail=1
}

rm -rf "$base"
mkdir -p "$base" "$work/out/parent" "$work/out/change"
git archive "$parent" | tar -x -C "$base"
targets="./bin/fpb.exe ./bench/e2e/fpbench.exe"
echo "building $parent in $base and the working tree"
(cd "$base" && dune build --root . --display quiet $targets)
dune build --root . --display quiet $targets

# [both NAME CMD...]: run CMD in each tree at once, stdout to
# out/SIDE/NAME; CMD's own paths may use $OUT (that side's output dir).
both() {
  name=$1
  shift
  for side in parent change; do
    if [ "$side" = parent ]; then dir=$base; else dir=$change; fi
    (cd "$dir" && OUT="$work/out/$side" && export OUT &&
      sh -c "$*" > "$work/out/$side/$name") &
  done
  wait
}

for id in $ids; do
  both "$id.stdout" './_build/default/bin/fpb.exe exp '"$id"' --json "$OUT/'"$id"'.json"'
  python3 - "$work/out/parent/$id.json" "$work/out/change/$id.json" <<'EOF' ||
import json, sys
def load(p):
    return [(e["id"], e["tables"], e["metrics"]) for e in json.load(open(p))["experiments"]]
sys.exit(load(sys.argv[1]) != load(sys.argv[2]))
EOF
    differ "fpb exp $id: tables or metrics"
  echo "fpb exp $id compared"
done

both crashtest.stdout './_build/default/bin/fpb.exe crashtest --tiny --seed 42'
cmp -s "$work/out/parent/crashtest.stdout" "$work/out/change/crashtest.stdout" ||
  differ "fpb crashtest --tiny --seed 42: stdout"
both chaos.stdout './_build/default/bin/fpb.exe chaos --tiny'
cmp -s "$work/out/parent/chaos.stdout" "$work/out/change/chaos.stdout" ||
  differ "fpb chaos --tiny: stdout"
echo "crashtest and chaos compared"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
  for seed in 1 2 3; do
    run="$w-s$seed"
    both "$run.stdout" "./_build/default/bench/e2e/fpbench.exe run --workload $w --seed $seed --seconds $seconds"
    python3 - "$work/out/parent/$run.stdout" "$work/out/change/$run.stdout" <<'EOF' ||
import json, sys
def sim(p):
    s = json.loads(open(p).read().strip().splitlines()[-1])
    m = {k: v["value"] for k, v in s["metrics"].items() if k.startswith("sim_")}
    return (s["correct"], s["failed"], m)
a, b = sim(sys.argv[1]), sim(sys.argv[2])
print(" ", sys.argv[2].rsplit("/", 1)[-1], b)
sys.exit(a != b)
EOF
      differ "fpbench $w seed $seed: sim_*, failed or correct"
  done
done

if [ "$fail" -ne 0 ]; then
  echo "same_behaviour.sh: the working tree differs from $parent (outputs in $work/out)"
  exit 1
fi
echo "same_behaviour.sh: identical to $parent (outputs in $work/out)"
