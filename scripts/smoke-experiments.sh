#!/usr/bin/env bash
# Paper-experiment smoke: runs the service-cache and autoscale
# ablations and Figs. 6 and 7 at a small scale. dlhub-bench exits
# non-zero when an experiment returns an error — a failed run in one of
# their concurrent clients or batch chunks included — and so does this
# script. The pipeline ablation runs in smoke-pipeline.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/smoke-lib.sh

build_bins dlhub-bench

"$SMOKE_BIN/dlhub-bench" -exp cache,autoscale,fig6,fig7 -requests 20 -scale 100 -fig7-n 40
echo "smoke-experiments: OK"
