#!/usr/bin/env bash
# Byte-compare artifacts that must be identical: a run at --jobs 1
# against the same run at --jobs N, or a committed results file
# against what its bench prints today. Accepts one or more
# FILE_A FILE_B pairs and checks every pair, so one invocation can
# gate a whole run's artifact set.
# On mismatch, print the first differing lines so the failure is
# debuggable straight from the CI log.
set -u

if [ "$#" -lt 2 ] || [ "$(($# % 2))" -ne 0 ]; then
    echo "usage: $0 FILE_A FILE_B [FILE_A FILE_B]..." >&2
    exit 2
fi

rc=0
while [ "$#" -gt 0 ]; do
    a="$1"
    b="$2"
    shift 2

    if cmp -s "$a" "$b"; then
        echo "identical: $a == $b"
        continue
    fi

    echo "::error::determinism violation: $a and $b differ"
    echo "--- first differing lines ($a vs $b) ---"
    diff "$a" "$b" | head -20
    rc=1
done
exit "$rc"
