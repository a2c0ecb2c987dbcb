#!/usr/bin/env bash
# Every `lnvm-bench -quick` output of the working tree against a build of
# <base-ref>, byte for byte (the `wall time` line aside).
#
#   bash .github/scripts/quick_identity.sh <base-ref>
#
# Ids a change means to move are listed in .github/quick_moved.txt, one per
# line ('#' starts a comment). An unlisted id that moved fails; so does a
# listed id that did not, so the list cannot go stale. ≈ 3 min on 2 cores.
set -euo pipefail

base=${1:?usage: quick_identity.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
go -C "$tmp/base" build -o "$tmp/bench.base" ./cmd/lnvm-bench
go -C "$root" build -o "$tmp/bench.head" ./cmd/lnvm-bench

moved_file=$root/.github/quick_moved.txt
listed() { [ -f "$moved_file" ] && sed 's/#.*//' "$moved_file" | grep -qx "[[:space:]]*$1[[:space:]]*"; }

fail=0
for id in $("$tmp/bench.head" -list | awk '{print $1}'); do
	for side in base head; do
		if ! "$tmp/bench.$side" -quick "$id" >"$tmp/$id.$side.raw" 2>&1; then
			echo "FAIL $id: $side run exited non-zero"
			tail -5 "$tmp/$id.$side.raw"
			fail=1
		fi
		grep -v 'wall time' "$tmp/$id.$side.raw" >"$tmp/$id.$side" || true
	done
	if diff -u "$tmp/$id.base" "$tmp/$id.head" >"$tmp/$id.diff"; then
		if listed "$id"; then
			echo "FAIL $id: listed in .github/quick_moved.txt but byte-identical to $base"
			fail=1
		else
			echo "ok   $id"
		fi
	elif listed "$id"; then
		echo "moved $id (listed)"
		cat "$tmp/$id.diff"
	else
		echo "FAIL $id: output differs from $base"
		cat "$tmp/$id.diff"
		fail=1
	fi
done
exit $fail
