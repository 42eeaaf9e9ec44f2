#!/usr/bin/env bash
# Compare the check reports of the working tree with those of a revision.
#
# Usage: scripts/same_reports.sh [REV]      (REV defaults to HEAD)
#
# Unpacks `git archive REV src` into a temporary directory and runs, on that
# tree and on the working tree's src/, the standing reference reports:
#   check all --profile smoke|desk|deep --format json
#   check integrality --profile deep --format json
#   check A2 --profile deep --format text
#   check NAME --profile deep --format json, for each of the eight equality
#     checks (every check but integrality), one process each: the processes
#     of the benchmark's equalities-deep workload
#   reduce FILE --format text|json, for three element files written first by
#     REV's `eval --format json`: a bbD block, an sl3 p(chi) pushed along root
#     1, and the non-integral x+(1) x+(t) / 2
# Each run is a cold process.  Timings (`elapsedMs` in JSON, `elapsed=` in
# text) are stripped and the exit status is kept; any other difference is
# printed and the script exits 1.  Each line also gives the peak resident
# set of the two cold runs, old -> new (getrusage of the child process), and
# a line names the equality process with the highest peak on each side,
# which sets equalities-deep's peak_rss_mb, and a last line gives the line
# count of each src/mapalg/*.py module and their total, old -> new.  None of
# these affects the exit status.
set -euo pipefail

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/rev"
# byte code for both trees up front, so that no run's peak RSS includes
# compiling the package (which PYTHONDONTWRITEBYTECODE would repeat per run)
python3 -m compileall -q "$tmp/rev/src" "$root/src" > /dev/null

report() {  # report SRC ARGS...: one mapalg output without its timings;
            # the run's peak RSS in MiB goes to $tmp/rss
    local src=$1 status=0
    shift
    PYTHONPATH="$src" python3 -c '
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-m", "mapalg.cli"] + sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write("%.2f" % (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024))
sys.exit(code)' "$tmp/rss" "$@" > "$tmp/raw" || status=$?
    sed -E 's/"elapsedMs": [-+.0-9eE]+/"elapsedMs": _/; s/ elapsed=[0-9]+ms/ elapsed=_/' "$tmp/raw"
    echo "exit status $status"
}

# perfbench/run.py's EQUALITY_CHECKS, in its order
equalities="straightening D-consistency p-properties commutation D-identities A2 divided-powers self-consistency"
runs=(
    "check all --profile smoke --format json"
    "check all --profile desk --format json"
    "check all --profile deep --format json"
    "check integrality --profile deep --format json"
    "check A2 --profile deep --format text"
)
for name in $equalities; do
    runs+=("check $name --profile deep --format json")
done
elements() {  # the reduce inputs, written into $tmp by REV's eval
    local mapalg=(env PYTHONPATH="$tmp/rev/src" python3 -m mapalg.cli)
    "${mapalg[@]}" eval bbD --psi1 '{[0]:1,[1]:1}' --psi2 '{[1]:1,[2]:1}' \
        --psi3 '{[0]:2,[1]:1}' --format json > "$tmp/bbD.json"
    "${mapalg[@]}" eval p --algebra sl3 --alpha 1 --chi '{[0]:1,[1]:2}' \
        --format json > "$tmp/p-sl3.json"
    echo '[{"monomial": [[2, [0], 1], [2, [1], 1]], "coeff": ["1", "2"]}]' > "$tmp/half.json"
}
elements
for element in "bbD.json" "p-sl3.json --algebra sl3" "half.json"; do
    for format in text json; do
        runs+=("reduce $tmp/$element --format $format")
    done
done

differ=0
top_old="0 -" top_new="0 -"  # highest equality peak so far: MiB and check
higher() { awk -v a="$1" -v b="$2" 'BEGIN { exit !(a > b) }'; }
for args in "${runs[@]}"; do
    # shellcheck disable=SC2086  # the arguments are split on purpose
    report "$tmp/rev/src" $args > "$tmp/old"
    old_rss=$(cat "$tmp/rss")
    # shellcheck disable=SC2086
    report "$root/src" $args > "$tmp/new"
    new_rss=$(cat "$tmp/rss")
    rss="peak RSS $old_rss -> $new_rss MiB"
    shown=${args//"$tmp/"/}
    if cmp -s "$tmp/old" "$tmp/new"; then
        echo "same      $shown ($(wc -l < "$tmp/new") lines; $rss)"
    else
        echo "DIFFERENT $shown ($rss)"
        diff "$tmp/old" "$tmp/new" | head -20 || true
        differ=1
    fi
    name=${args#check }
    name=${name%% *}
    if [[ $args == "check "*"--profile deep --format json" && " $equalities " == *" $name "* ]]; then
        higher "$old_rss" "${top_old% *}" && top_old="$old_rss $name"
        higher "$new_rss" "${top_new% *}" && top_new="$new_rss $name"
    fi
done
echo "equalities-deep peak RSS: ${top_old% *} MiB (${top_old#* }) -> ${top_new% *} MiB (${top_new#* })"
sizes() {  # sizes TREE: "module lines" for each TREE/src/mapalg/*.py, sorted
    local f
    for f in "$1"/src/mapalg/*.py; do
        echo "$(basename "$f" .py) $(wc -l < "$f")"
    done | LC_ALL=C sort
}
LC_ALL=C join -a1 -a2 -e 0 -o 0,1.2,2.2 <(sizes "$tmp/rev") <(sizes "$root") | awk '
    { line = line sprintf(" %s %d -> %d,", $1, $2, $3); old += $2; new += $3 }
    END { print "src/mapalg lines:" line " total " old " -> " new }'
exit "$differ"
