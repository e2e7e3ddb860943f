#!/usr/bin/env bash
# Write the 16 CLI artifacts whose bytes a change is expected to keep, then
# list their md5 sums (one "sum  name" line each, sorted by name).
#
#   scripts/artifacts.sh SRC_DIR OUT_DIR
#
# SRC_DIR is the package source to run (the directory holding dkpc/), so
# one checkout of this script can generate another commit's artifacts.
# The artifacts:
#   default/    dataset.csv and bank.json of the default gen-data, and the
#               trace.csv and metrics.csv of `dkpc run` for DKPC and DeePC
#               (controller.lambda_sigma=1e5), each with disturbance seeds
#               7 and 11 (10 files);
#   reduced/    the --reduced gen-data, sweep and report outputs (6 files).
# Outputs depend on the BLAS thread count (summation order): run it with
# OPENBLAS_NUM_THREADS=1 (and OMP/MKL alike) to compare two commits.
set -euo pipefail

src=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"
out=$(cd "$out" && pwd)
unset DKPC_OUTPUT_ROOT
config="$out/exp.yaml"
echo "{}" > "$config"

dkpc() {
    PYTHONPATH="$src" python -m dkpc.cli "$@" -c "$config"
}

dkpc gen-data -o "$out/default"
for kind in dkpc deepc; do
    extra=()
    [ "$kind" = deepc ] && extra=(--set controller.kind=deepc --set controller.lambda_sigma=1e5)
    for seed in 7 11; do
        dkpc run -o "$out/default" "${extra[@]}" --set "sim.disturbance.seed=$seed"
        for name in trace.csv metrics.csv; do
            mv "$out/default/$name" "$out/default/${kind}_d${seed}_$name"
        done
    done
done
for command in gen-data sweep report; do
    dkpc "$command" --reduced -o "$out/reduced"
done

(cd "$out" && md5sum default/* reduced/* | sort -k 2)
