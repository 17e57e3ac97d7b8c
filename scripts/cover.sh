#!/bin/sh
# Coverage gate: one instrumented test run over the whole module,
# a per-package breakdown, and hard thresholds —
#   total   >= COVER_BASELINE (the pre-observability-PR baseline)
#   obs     >= COVER_OBS_MIN  (the metrics layer is held to a higher bar)
#   health  >= COVER_HEALTH_MIN (so is the circuit-breaker layer)
#   journal >= COVER_JOURNAL_MIN (and the crash-consistency journal)
#   localfs >= COVER_LOCALFS_MIN (and the scanner/watcher layer)
#   daemon  >= COVER_DAEMON_MIN (and the multi-tenant host)
#   scrub   >= COVER_SCRUB_MIN (and the anti-entropy scrubber)
#   capacity >= COVER_CAPACITY_MIN (and the quota-exhaustion tracker)
set -eu
cd "$(dirname "$0")/.."

BASELINE="${COVER_BASELINE:-74.9}"
PROFILE="${COVER_PROFILE:-/tmp/unidrive-cover.out}"

# One line per gated package: its internal/ directory and its floor.
FLOORS="obs ${COVER_OBS_MIN:-85.0}
health ${COVER_HEALTH_MIN:-85.0}
journal ${COVER_JOURNAL_MIN:-85.0}
localfs ${COVER_LOCALFS_MIN:-85.0}
daemon ${COVER_DAEMON_MIN:-85.0}
scrub ${COVER_SCRUB_MIN:-85.0}
capacity ${COVER_CAPACITY_MIN:-85.0}"

echo "== go test -coverprofile (all packages)"
go test -coverprofile="$PROFILE" -coverpkg=./... ./... > /dev/null

echo "== per-package coverage"
go tool cover -func="$PROFILE" | awk '
	/^total:/ { next }
	{
		n = split($1, parts, "/")
		sub(/:.*/, "", parts[n])          # strip file:line
		pkg = $1
		sub("/" parts[n] ":.*", "", pkg)  # strip trailing /file.go:line
		covered[pkg] += $3 + 0            # go tool cover reports per-func %
		count[pkg]++
	}
	END {
		for (p in covered)
			printf "  %-44s %6.1f%%\n", p, covered[p] / count[p]
	}' | sort

# percent prints the total statement coverage of a profile.
percent() {
	go tool cover -func="$1" | awk '/^total:/ { sub(/%/, "", $3); print $3 }'
}

fail=0
total=$(percent "$PROFILE")
echo "total coverage: ${total}% (baseline ${BASELINE}%)"
if awk "BEGIN { exit !($total < $BASELINE) }"; then
	echo "FAIL: total coverage ${total}% fell below the ${BASELINE}% baseline" >&2
	fail=1
fi

while read -r pkg min; do
	pkg_profile="${PROFILE}.${pkg}"
	{ head -n 1 "$PROFILE"; grep "^unidrive/internal/${pkg}/" "$PROFILE" || true; } > "$pkg_profile"
	got=$(percent "$pkg_profile")
	echo "internal/${pkg} coverage: ${got}% (minimum ${min}%)"
	if awk "BEGIN { exit !($got < $min) }"; then
		echo "FAIL: internal/${pkg} coverage ${got}% is below the ${min}% bar" >&2
		fail=1
	fi
done <<EOT
$FLOORS
EOT
exit $fail
