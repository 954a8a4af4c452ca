#!/bin/sh
# Run a command while one busy-looping spinner per core competes with it
# for CPU, so timing-dependent races get a chance to show. The spinners
# are killed when the command exits; the script exits with its status.
#
#   sh tools/with_cpu_contention.sh <command> [args...]
set -u
pids=""
trap 'kill $pids 2>/dev/null' EXIT INT TERM
cores=$(nproc)
i=0
while [ "$i" -lt "$cores" ]; do
  (while :; do :; done) &
  pids="$pids $!"
  i=$((i + 1))
done
"$@"
