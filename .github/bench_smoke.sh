#!/usr/bin/env bash
# Benchmark smoke runs: every workload for 2 s at each seed of the digest
# contract (7 and 51). The last line of each run must report correct
# outputs and no failed op. Given the checkout of a base commit, every run
# is repeated there (its perfbench/run.py imports that checkout's own src),
# and any `digest ... over N distinct inputs` line that differs from the
# base's fails the script. Each digest line also shows the `setup_s` and
# `peak_rss_mb` of the run and of the base's run, for reading only.
#
# Run from the root of a checkout:
#
#     bash .github/bench_smoke.sh [BASE_CHECKOUT]
set -uo pipefail

base=${1:-}
status=0

# `setup_s=... peak_rss_mb=...` from the last line of a run's output
figures() {
  tail -n 1 <<<"$1" | python3 -c 'import json, sys; m = json.load(sys.stdin)["metrics"]; print("setup_s=%.4f peak_rss_mb=%.2f" % (m["setup_s"]["value"], m["peak_rss_mb"]["value"]))' 2>/dev/null ||
    echo "setup_s=? peak_rss_mb=?"
}

for seed in 7 51; do
  for w in data_fwd schema_bwd deep_layers cli_batch; do
    run=(perfbench/run.py --workload "$w" --seed "$seed" --seconds 2 --trace 0)
    out=$(python3 "${run[@]}") || status=1
    tail -n 1 <<<"$out" |
      python3 -c 'import json, sys; d = json.load(sys.stdin); print(sys.argv[1], sys.argv[2], d); sys.exit(not (d["correct"] is True and d["failed"] == 0))' "$w" "$seed" ||
      status=1
    if [ -n "$base" ]; then
      base_out=$(cd "$base" && python3 "${run[@]}")
      digest=$(grep '^digest ' <<<"$out")
      base_digest=$(grep '^digest ' <<<"$base_out")
      shown="change $(figures "$out"), base $(figures "$base_out")"
      if [ "$digest" = "$base_digest" ]; then
        echo "$w $seed: $digest, as at the base; $shown"
      else
        echo "$w $seed: $digest, but at the base: $base_digest; $shown"
        status=1
      fi
    fi
  done
done
exit "$status"
