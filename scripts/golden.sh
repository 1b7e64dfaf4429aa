#!/usr/bin/env bash
# Checks the pinned simulation digests of tests/golden/digests.txt against
# a build, or rewrites them from it.
#
#   scripts/golden.sh [BUILD_DIR [NAME]]    # check every entry, or one
#   scripts/golden.sh --update [BUILD_DIR]  # rewrite every value
#
# BUILD_DIR defaults to build/.  Every entry is a bench smoke test: ctest
# runs bench_smoke_NAME as `scripts/golden.sh BUILD_DIR NAME` (label
# golden), so one run of the bench is both its smoke test and its digest
# check.  An entry's command runs BUILD_DIR/bench's binary from
# BUILD_DIR/bench, and its value is the 16-hex-digit word after "digest"
# on the command's stdout, which is echoed.  A check passes when every
# entry it runs exits 0 and prints its pinned value, and names every entry
# that moved; an update writes nothing unless every entry printed a
# digest, whatever its exit status (switch_saturation's timing floor).

set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
file="${root}/tests/golden/digests.txt"

update=0
if [[ "${1:-}" == --update ]]; then
  update=1
  shift
fi
build="$(cd "${1:-${root}/build}" && pwd)"
only="${2:-}"

failed=0
ran=0
rewritten=""
while IFS= read -r line; do
  if [[ -z "${line}" || "${line}" == \#* ]]; then
    rewritten+="${line}"$'\n'
    continue
  fi
  read -r -a field <<< "${line}"
  name="${field[0]}"
  if [[ -n "${only}" && "${name}" != "${only}" ]]; then
    rewritten+="${line}"$'\n'
    continue
  fi
  want="${field[-1]}"
  command=("${field[@]:1:${#field[@]}-2}")
  ran=1
  status=0
  out="$(cd "${build}/bench" && "./${command[0]}" "${command[@]:1}")" ||
    status=$?
  printf '%s\n' "${out}"
  got="$(sed -n '/.*digest \([0-9a-f]\{16\}\).*/{s//\1/p;q;}' <<< "${out}")"
  if [[ -z "${got}" ]]; then
    echo "${name}: no digest from '${command[*]}'" >&2
    exit 1
  fi
  rewritten+="${name} ${command[*]} ${got}"$'\n'
  if [[ "${got}" == "${want}" && "${status}" == 0 ]]; then
    echo "ok ${name} ${got}"
  else
    echo "FAILED ${name}: digest ${got} (pinned ${want}), exit status ${status}" >&2
    failed=1
  fi
done < "${file}"

if [[ "${ran}" == 0 ]]; then
  echo "no entry named '${only}' in ${file}" >&2
  exit 1
fi
if [[ "${update}" == 1 ]]; then
  printf '%s' "${rewritten}" > "${file}"
  echo "wrote ${file}"
  exit 0
fi
exit "${failed}"
