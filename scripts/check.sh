#!/usr/bin/env bash
# Tier-1 verification plus optional sanitizer and bench-smoke passes.
#
#   scripts/check.sh          # plain build + full test suite
#   scripts/check.sh --no-obs # additionally build/test with -DBOLTED_OBS=OFF
#   scripts/check.sh --asan   # additionally build/test with ASan + UBSan
#   scripts/check.sh --tsan   # additionally build/run the sharding suite under TSan
#   scripts/check.sh --bench  # additionally smoke-run the JSON bench runners
#   scripts/check.sh --scenario  # additionally run the full 16-seed scenario soak
#
# Flags combine (e.g. `scripts/check.sh --asan --bench`).  The extra
# builds live in build-noobs/, build-asan/ and build-tsan/ so they never
# disturb the regular build tree (benchmarks must not run instrumented).

set -euo pipefail
cd "$(dirname "$0")/.."

want_noobs=0
want_asan=0
want_tsan=0
want_bench=0
want_scenario=0
for arg in "$@"; do
  case "${arg}" in
    --no-obs) want_noobs=1 ;;
    --asan) want_asan=1 ;;
    --tsan) want_tsan=1 ;;
    --bench) want_bench=1 ;;
    --scenario) want_scenario=1 ;;
    *)
      echo "unknown flag: ${arg}" >&2
      exit 2
      ;;
  esac
done

# Each leg's full ctest includes the pinned simulation digests (ctest -L
# golden, tests/golden/digests.txt), so obs on or off and ASan must change
# no event.
run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    --no-tests=error
}

# One implementation per mechanism in production code: src/ reads no
# environment variable but the CPU-dispatch override, and nothing in src/,
# examples/ or fleetbench/ names the test-only oracle library
# (tests/oracle, target bolted_oracle).
echo "== tier-1: no knobs or oracles in production code =="
if grep -rnE '\b(secure_)?getenv\b|\benviron\b' src |
    grep -v 'getenv("BOLTED_FORCE_SCALAR")'; then
  echo "src/ reads an environment variable other than BOLTED_FORCE_SCALAR" >&2
  exit 1
fi
if grep -rnE 'tests/oracle|bolted_oracle' src examples fleetbench; then
  echo "src/, examples/ or fleetbench/ names the test-only oracle library" >&2
  exit 1
fi

echo "== tier-1: default build =="
run_suite build

# The AES-NI CTR and XTS loops pay off only with all 8 lanes in registers
# across the 13 middle rounds, which shows in the object file as the
# rounds unrolled: at least 8 x 13 = 104 aesenc (and aesdec for XTS).  A
# compiler or flag change that spills the lanes fails here instead of
# silently making AES ~3x slower.
if [[ "$(uname -m)" == x86_64 ]]; then
  echo "== tier-1: AES-NI kernels keep their lanes in registers =="
  aes_obj=build/src/CMakeFiles/bolted_crypto.dir/crypto/aes_ni.cc.o
  if [[ ! -f "${aes_obj}" ]]; then
    echo "${aes_obj} not found" >&2
    exit 1
  fi
  aes_asm="$(objdump -d --no-show-raw-insn "${aes_obj}")"
  for kernel_op in AesNiCtr32Xor:aesenc AesNiXtsSector:aesenc AesNiXtsSector:aesdec; do
    kernel="${kernel_op%%:*}"
    op="${kernel_op##*:}"
    count="$(awk -v fn="${kernel}" -v op="${op}" '
      /^[0-9a-f]+ <.*>:$/ { in_fn = index($0, fn) > 0; next }
      in_fn && $2 == op { n++ }
      END { print n + 0 }' <<< "${aes_asm}")"
    if (( count < 104 )); then
      echo "${kernel}: ${count} ${op} in ${aes_obj}, want >= 104 (8 lanes x 13 rounds);" \
        "its lanes are not kept in registers" >&2
      exit 1
    fi
    echo "${kernel}: ${count} ${op}"
  done

  # The P-256 x86-64 field multiply is inlined into the group law, so the
  # group law instantiated over that kernel (P256::Arith<field::FpX64>)
  # must hold its MULX rows and ADCX/ADOX carry chains.  A refactor that
  # sends it back through the portable field::Fp fails here, naming the
  # function, instead of silently halving P-256 throughput.
  echo "== tier-1: the P-256 group law runs the x86-64 field kernel =="
  p256_obj=build/src/CMakeFiles/bolted_crypto.dir/crypto/p256.cc.o
  if [[ ! -f "${p256_obj}" ]]; then
    echo "${p256_obj} not found" >&2
    exit 1
  fi
  p256_asm="$(objdump -d -C --no-show-raw-insn "${p256_obj}")"
  for fn in Double AddMixed AddJacobian; do
    name="P256::Arith<bolted::crypto::field::FpX64>::${fn}"
    counts="$(awk -v fn="${name}(" '
      /^[0-9a-f]+ <.*>:$/ { in_fn = index($0, fn) > 0; next }
      in_fn && ($2 == "mulx" || $2 == "adcx" || $2 == "adox") { n[$2]++ }
      END { printf "%d %d %d", n["mulx"], n["adcx"], n["adox"] }' <<< "${p256_asm}")"
    read -r mulx adcx adox <<< "${counts}"
    if (( mulx == 0 || adcx == 0 || adox == 0 )); then
      echo "${name}: ${mulx} mulx, ${adcx} adcx, ${adox} adox in ${p256_obj};" \
        "it does not run the x86-64 field kernel" >&2
      exit 1
    fi
    echo "${name}: ${mulx} mulx, ${adcx} adcx, ${adox} adox"
  done
fi

# Every label step passes --no-tests=error, so a renamed or dropped label
# fails the check instead of silently selecting nothing.  ctest lists gtest
# cases (P256Test.*, DeterminismTest.*), not binaries, so the forced-scalar
# step selects crypto_test and determinism_test by their label.
echo "== tier-1: forced-scalar crypto backend (ctest -L force-scalar) =="
BOLTED_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure \
  -j "$(nproc)" -L force-scalar --no-tests=error

echo "== tier-1: observability suite (ctest -L obs) =="
ctest --test-dir build --output-on-failure --no-tests=error -L obs

echo "== tier-1: batched attestation suite (ctest -L attestation) =="
ctest --test-dir build --output-on-failure --no-tests=error -L attestation

echo "== tier-1: sharded-runtime suite (ctest -L sharding) =="
ctest --test-dir build --output-on-failure --no-tests=error -L sharding

# The -L argument is a regex, so "scenario" selects both the scenario_test
# suite and the 16-seed scenario_soak sweep (incl. the 1024-node sharded
# acceptance run).
echo "== tier-1: scenario suite + soak (ctest -L scenario) =="
ctest --test-dir build --output-on-failure --no-tests=error -L scenario

# Merkle tamper/rollback matrix, seeded fuzz-vs-oracle battery, the
# crypt+merkle crash-point sweep, and the chunk-distribution protocol tests.
echo "== tier-1: storage-integrity suite (ctest -L storage-integrity) =="
ctest --test-dir build --output-on-failure --no-tests=error -L storage-integrity

# Burst fast-path battery: send-verdict matrix, burst-vs-generic digest
# parity under faults and topology churn, InjectFrame metric
# reconciliation, and the deterministic pcap capture suite.  (The -L regex
# also matches net_test's discovered entries — all the better.)
echo "== tier-1: switch fast-path + pcap suite (ctest -L net) =="
ctest --test-dir build --output-on-failure --no-tests=error -L net

# BOLTED_OBS=OFF compiles every instrumentation site away; the whole suite
# must pass without it (tests that read obs counters gate those checks on
# BOLTED_OBS), so the option cannot rot unbuilt.
if [[ "${want_noobs}" == 1 ]]; then
  echo "== obs compiled out: -DBOLTED_OBS=OFF =="
  run_suite build-noobs -DBOLTED_OBS=OFF
fi

if [[ "${want_asan}" == 1 ]]; then
  echo "== sanitizers: ASan + UBSan =="
  run_suite build-asan -DBOLTED_SANITIZE=ON
  # The P-256 table build, joint verify ladders, and batch inversion only
  # execute under real curve traffic; drive them (and the fleet polling
  # loop that exercises the prepared-AIK cache) instrumented.
  echo "== sanitizers: crypto + attestation benches under ASan =="
  ./build-asan/bench/bench_crypto_json /tmp/bolted_asan_bench_crypto.json
  # 128 nodes: enough to exercise every code path; 4096 instrumented
  # nodes would dominate the whole check run.
  ./build-asan/bench/fleet_attestation --nodes=128 \
    /tmp/bolted_asan_bench_attestation.json
  # The obs exporters shuffle strings and trace-event vectors; run the
  # registry + span machinery (and a traced provisioning flow) instrumented.
  echo "== sanitizers: observability suite under ASan =="
  ctest --test-dir build-asan --output-on-failure --no-tests=error -L obs
  # The batch verifier's bisection, square-root recovery, and worker-pool
  # scatter paths all juggle raw spans and index vectors; run them
  # instrumented too.
  echo "== sanitizers: batched attestation suite under ASan =="
  ctest --test-dir build-asan --output-on-failure --no-tests=error -L attestation
  # The scenario runner drives every subsystem at once (coroutines, fault
  # injector, Keylime pipeline, sniffer) over long horizons, so it is a
  # good ASan workload; 4 seeds keep the instrumented run tractable.
  echo "== sanitizers: scenario soak under ASan (4 seeds) =="
  ./build-asan/tests/scenario_soak_test --seeds=4
  # The Merkle device and chunk caches juggle raw sector buffers, an LRU
  # of hash nodes, and parked RPC fetchers; the tamper matrix and fuzz
  # battery must fail closed under instrumentation too.
  echo "== sanitizers: storage-integrity suite under ASan =="
  ctest --test-dir build-asan --output-on-failure --no-tests=error -L storage-integrity
  # The burst engine juggles a flight arena + freelist, ring-batched
  # deliveries, and pooled MessageBoxes; the pcap writer assembles frames
  # in a reused scratch buffer.  Both must stay clean instrumented.
  echo "== sanitizers: switch fast-path + pcap suite under ASan =="
  ctest --test-dir build-asan --output-on-failure --no-tests=error -L net
fi

if [[ "${want_tsan}" == 1 ]]; then
  echo "== sanitizers: sharded-runtime suite under TSan =="
  # The worker pool's tickets are the tree's only cross-thread code, and
  # two users hand work through them.  The sharded runtime fork-joins each
  # window phase over its busy shards, so the joins alone order its frame
  # mailboxes and rack Simulations; the attestation stages hand quote
  # signatures and batch verdicts back to the simulation thread.  The
  # sharding suite, a multi-threaded fleet_sharding sweep (dense windows)
  # and a 512-node fleet_scenario run (sparse windows with zero, one or
  # several handoffs each) drive the window phases; the attestation legs
  # below drive the other user.  A handoff only crosses a thread on a host
  # with at least two cores, since the runtime clamps its workers to them.
  cmake -B build-tsan -S . -DBOLTED_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" --target sharding_test fleet_sharding \
    fleet_scenario net_fastpath_test scenario_soak_test \
    attestation_batch_test tpm_test keylime_test fleet_attestation
  ./build-tsan/tests/sharding_test
  # The burst engine runs inside the sharded workers (per-rack Networks,
  # uplink ingress via InjectFrame); the fast-path suite's sharded cases
  # are the TSan workload for it, and its generic-path legs run the
  # bolted_oracle library on the same worker threads.
  ./build-tsan/tests/net_fastpath_test
  ./build-tsan/bench/fleet_sharding --nodes=512 --horizon-ms=1 \
    /tmp/bolted_tsan_bench_sharding.json
  ./build-tsan/bench/fleet_scenario --nodes=512 --horizon-s=10 \
    /tmp/bolted_tsan_bench_scenario.json
  # The sharded scenario model layers lifecycle state on the same mailboxes
  # and window joins; --sharded-only skips the single-threaded oracle sweep
  # and runs just the threaded 1024-node acceptance scenario.
  ./build-tsan/tests/scenario_soak_test --sharded-only
  # Quotes signed on the pool while their latency elapses, batches verified
  # as they fill: the TPM suite's pools of 1-4 threads, the fleet rounds at
  # 2-8 workers, and a 128-node fleet polled at 4 workers (its sweep also
  # rebuilds the pool and runs the per-node path beside it).
  echo "== sanitizers: attestation threads under TSan =="
  ./build-tsan/tests/tpm_test
  ./build-tsan/tests/keylime_test
  ./build-tsan/tests/attestation_batch_test
  ./build-tsan/bench/fleet_attestation --nodes=128 --workers=4 \
    /tmp/bolted_tsan_bench_attestation.json
fi

if [[ "${want_bench}" == 1 ]]; then
  echo "== bench smoke: ctest -L bench_smoke (uninstrumented build) =="
  ctest --test-dir build --output-on-failure --no-tests=error -L bench_smoke
  echo "== bench regression guard: full-scale runs vs committed baselines =="
  # Fresh full-scale runs (4096-node fleets, 2M-op scheduler workloads),
  # then a >25% host-time comparison against the committed BENCH_*.json
  # baselines.  Regenerate baselines by copying build/bench output to the
  # repo root when a change legitimately moves the numbers.
  ./build/bench/bench_sim_json build/bench/BENCH_sim.fresh.json
  ./build/bench/switch_saturation build/bench/BENCH_net.fresh.json
  ./build/bench/fleet_attestation build/bench/BENCH_attestation.fresh.json
  ./build/bench/fleet_provisioning build/bench/BENCH_provisioning.fresh.json
  ./build/bench/fleet_sharding build/bench/BENCH_sharding.fresh.json
  ./build/bench/fleet_scenario build/bench/BENCH_scenario.fresh.json
  python3 scripts/bench_guard.py \
    BENCH_sim.json build/bench/BENCH_sim.fresh.json \
    BENCH_net.json build/bench/BENCH_net.fresh.json \
    BENCH_attestation.json build/bench/BENCH_attestation.fresh.json \
    BENCH_provisioning.json build/bench/BENCH_provisioning.fresh.json \
    BENCH_sharding.json build/bench/BENCH_sharding.fresh.json \
    BENCH_scenario.json build/bench/BENCH_scenario.fresh.json
fi

if [[ "${want_scenario}" == 1 ]]; then
  # The plain tier-1 pass above already ran the scenario label through
  # ctest; this flag re-runs the soak binary directly with verbose seed
  # output, which is the handy form when bisecting a failing seed.
  echo "== scenario: 16-seed soak + 1024-node sharded acceptance =="
  ./build/tests/scenario_soak_test
fi

echo "All checks passed."
