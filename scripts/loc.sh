#!/usr/bin/env bash
# loc.sh — non-test Go lines per package outside bench/, then the total:
# the figure simplicity exit criteria and ROADMAP re-anchors are stated in.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -co --exclude-standard '*.go' ':!bench' ':!*_test.go' | while read -r f; do
	echo "$(dirname "$f") $(wc -l <"$f")"
done | awk '{ n[$1] += $2; total += $2 }
	END { for (p in n) printf "%7d %s\n", n[p], p; printf "%7d total\n", total }' | sort -k2
