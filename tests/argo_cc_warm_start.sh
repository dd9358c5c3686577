#!/bin/sh
# argo_cc's disk tier, end to end. For each paper app, three runs must
# print the same reports and emit the same C sources:
#   cold  - fills a fresh --cache-dir;
#   warm  - reruns over that directory, and stores no record;
#   none  - runs without a cache.
# The directory holds the plain-data stages only (src/core/cache.h): no
# transforms/ or expand/ folder.
#
#   sh tests/argo_cc_warm_start.sh path/to/argo_cc WORKDIR
set -eu
argo_cc=$1
work=$2
# The environment must not attach a cache to the uncached run.
unset ARGO_CACHE_DIR ARGO_TRACE

rm -rf "$work"
mkdir -p "$work/cold" "$work/warm" "$work/none"
work=$(cd "$work" && pwd)
for app in egpws weaa polka; do
  cache=$work/$app.cache
  for run in cold warm none; do
    [ "$run" = warm ] && touch "$work/$app.marker"
    cacheFlag="--cache-dir $cache"
    [ "$run" = none ] && cacheFlag=
    # Relative --emit-c paths keep the "emitted ... to DIR" line equal.
    (cd "$work/$run" &&
      "$argo_cc" --app "$app" $cacheFlag --report gantt,mhp,bottlenecks \
        --emit-c "$app.c" > "$app.txt" 2>&1)
  done
  for run in warm none; do
    cmp "$work/cold/$app.txt" "$work/$run/$app.txt"
    diff -r "$work/cold/$app.c" "$work/$run/$app.c"
  done
  for stage in seqwcet timings schedule; do
    [ -d "$cache/$stage" ] || { echo "$app: no $stage/ records"; exit 1; }
  done
  for stage in transforms expand; do
    [ ! -e "$cache/$stage" ] || { echo "$app: $stage/ persisted"; exit 1; }
  done
  stored=$(find "$cache" -name '*.rec' -newer "$work/$app.marker")
  [ -z "$stored" ] || { echo "$app: warm run stored $stored"; exit 1; }
done
echo "argo_cc warm start OK"
