#!/usr/bin/env bash
# Produce a chrome://tracing / Perfetto-loadable trace of the Fig. 4
# provisioning flow and sanity-check it.
#
#   scripts/trace.sh [out.json]     # default: build/fig4_trace.json
#
# Builds the default tree if needed, runs `fig4_provisioning --trace=...`,
# and verifies the output parses as JSON (python3 when available, a shape
# grep otherwise).  Load the file at chrome://tracing or ui.perfetto.dev.

set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-build/fig4_trace.json}"

cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc)" --target fig4_provisioning > /dev/null

./build/bench/fig4_provisioning --trace="${out}"

if [[ ! -s "${out}" ]]; then
  echo "trace file ${out} is missing or empty" >&2
  exit 1
fi

if command -v python3 > /dev/null 2>&1; then
  python3 - "${out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
if not spans:
    sys.exit("trace parsed but contains no complete spans")
print(f"ok: {len(events)} events ({len(spans)} spans) parse as JSON")
EOF
else
  grep -q '"traceEvents"' "${out}" && grep -q '"ph":"X"' "${out}" || {
    echo "trace file ${out} does not look like a chrome trace" >&2
    exit 1
  }
  echo "ok: trace has the expected shape (python3 unavailable for a full parse)"
fi

echo "wrote ${out} — open it at chrome://tracing or https://ui.perfetto.dev"
