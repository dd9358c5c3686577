#!/bin/sh
# argo_cc --report code:TILE prints codegen's tile unit. For each paper
# app on the bus and on the mesh, every tile<T>.c that --emit-c writes
# must equal, byte for byte, what `--report code:T` prints in a run of
# its own.
#
#   sh tests/argo_cc_code_report.sh path/to/argo_cc WORKDIR
set -eu
argo_cc=$1
work=$2
unset ARGO_CACHE_DIR ARGO_TRACE

rm -rf "$work"
mkdir -p "$work"
for app in egpws weaa polka; do
  for platform in bus noc; do
    dir=$work/$app-$platform
    "$argo_cc" --app "$app" --platform "$platform" --emit-c "$dir" \
      --report '' > /dev/null
    units=0
    for unit in "$dir"/tile*.c; do
      [ -e "$unit" ] || break
      tile=${unit##*/tile}
      tile=${tile%.c}
      "$argo_cc" --app "$app" --platform "$platform" --report "code:$tile" \
        > "$work/code.txt"
      cmp "$unit" "$work/code.txt"
      units=$((units + 1))
    done
    [ "$units" -gt 0 ] || { echo "$app/$platform: no tile units"; exit 1; }
  done
done
echo "argo_cc code reports OK"
