#!/bin/sh
# Observer transparency: run one experiment with every observer armed
# (trace, metrics, causal spans, and the flight recorder with its online
# monitors) and check that its golden report is a line-for-line prefix of
# the output (observers only add notes after the report) and that no
# monitor fired (no post-mortem dump was written).
# Usage: observed.sh FBUFS_CLI EXPERIMENT GOLDEN
set -eu
cli=$1
exp=$2
golden=$3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$cli" "$exp" --trace "$dir/trace.json" --metrics "$dir/metrics.prom" \
  --spans "$dir/spans.jsonl" --record "$dir/postmortem" >"$dir/out"
head -n "$(wc -l <"$golden")" "$dir/out" | diff "$golden" -
if [ -e "$dir/postmortem" ]; then
  echo "$exp: a monitor fired and wrote a post-mortem dump:" >&2
  ls "$dir/postmortem" >&2
  exit 1
fi
