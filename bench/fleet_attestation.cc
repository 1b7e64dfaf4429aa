// Fleet-scale continuous attestation: one verifier polling a 4096-node
// fleet, measured in wall-clock (host) time per poll round.
//
// The paper's prototype attests each node every couple of seconds; at
// fleet scale the verifier's CPU budget is dominated by per-quote ECDSA
// verification plus per-poll key decoding.  This bench drives the real
// protocol stack — registrar lookup, nonce, TPM quote, log replay,
// whitelist checks — over the simulated network for every node, and
// reports how much host CPU one full round costs.  The first round pays
// the per-node Prepare (decode + on-curve check + verify tables); steady
// rounds hit the verifier's AIK cache and the golden boot-log cache, and
// verify signatures through the batched multi-scalar path
// (Verifier::VerifyFleet).  A final sweep re-times single rounds across
// batch sizes and worker counts, plus the legacy per-node VerifyNode path
// for an honest old-vs-new row.
//
// Usage: fleet_attestation [output-path] [--nodes=N] [--rounds=N]
//                          [--batch=N] [--workers=N] [--no-sweep]
//                          [--trace=out.json]
//   (default output: BENCH_attestation.json, default fleet 4096; --trace
//    additionally exports a chrome://tracing JSON of the whole run.
//    Tracing adds bookkeeping to the timed path, so compare wall numbers
//    only between untraced runs.)

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_cli.h"
#include "src/firmware/firmware.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/obs/obs.h"

namespace {

constexpr int kDefaultFleetSize = 4096;
constexpr int kDefaultSteadyRounds = 4;
constexpr int kAttestationVlan = 50;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bolted;
  const char* trace_path = nullptr;
  int fleet_size = kDefaultFleetSize;
  int steady_rounds = kDefaultSteadyRounds;
  int batch_size = 64;
  int workers = 1;
  bool no_sweep = false;
  const char* out_path =
      bench::Cli("usage: fleet_attestation [output-path] [--nodes=N] [--rounds=N]\n"
                 "                         [--batch=N] [--workers=N] [--no-sweep]\n"
                 "                         [--trace=out.json]",
                 "BENCH_attestation.json")
          .Number("--nodes", &fleet_size)
          .Number("--rounds", &steady_rounds)
          .Number("--batch", &batch_size)
          .Number("--workers", &workers)
          .Switch("--no-sweep", &no_sweep)
          .Text("--trace", &trace_path)
          .Parse(argc, argv);
  const bool sweep = !no_sweep;
  const int kFleetSize = fleet_size;

  sim::Simulation sim{1234};
#if BOLTED_OBS
  std::unique_ptr<obs::Registry> registry;
  if (trace_path != nullptr) {
    registry = std::make_unique<obs::Registry>(sim);
  }
#else
  if (trace_path != nullptr) {
    std::fprintf(stderr, "--trace ignored: built with BOLTED_OBS=0\n");
  }
#endif
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  net::Endpoint& registrar_ep = fabric.CreateEndpoint("registrar");
  net::Endpoint& verifier_ep = fabric.CreateEndpoint("verifier");
  keylime::Registrar registrar(sim, registrar_ep, 1);
  keylime::Verifier verifier(sim, verifier_ep, registrar_ep.address(), 2);
  verifier.SetFleetOptions({.workers = workers, .batch_size = batch_size});
  fabric.AttachToVlan(registrar_ep.address(), kAttestationVlan);
  fabric.AttachToVlan(verifier_ep.address(), kAttestationVlan);

  machine::MachineConfig mc;
  mc.flash_firmware = firmware::BuildLinuxBoot("src");
  auto whitelist = std::make_shared<keylime::Whitelist>();
  whitelist->AllowBoot(mc.flash_firmware.digest);

  std::vector<std::unique_ptr<machine::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::string> names;
  machines.reserve(kFleetSize);
  agents.reserve(kFleetSize);
  for (int i = 0; i < kFleetSize; ++i) {
    names.push_back("node-" + std::to_string(i));
    machines.push_back(
        std::make_unique<machine::Machine>(sim, fabric, names.back(), mc));
    agents.push_back(
        std::make_unique<keylime::Agent>(*machines.back(), 100 + i));
    fabric.AttachToVlan(machines.back()->address(), kAttestationVlan);
  }

  // Registration (AIK credential activation) and boot, all in one sim run.
  std::vector<uint8_t> registered(kFleetSize, 0);
  auto setup = [&](int i) -> sim::Task {
    bool ok = false;
    co_await agents[static_cast<size_t>(i)]->RegisterWithRegistrar(
        registrar_ep.address(), names[static_cast<size_t>(i)], &ok);
    registered[static_cast<size_t>(i)] = ok ? 1 : 0;
    co_await machines[static_cast<size_t>(i)]->PowerOnSelfTest();
  };
  for (int i = 0; i < kFleetSize; ++i) {
    sim.Spawn(setup(i));
  }
  sim.Run();
  for (int i = 0; i < kFleetSize; ++i) {
    if (!registered[static_cast<size_t>(i)]) {
      std::fprintf(stderr, "registration failed for %s\n",
                   names[static_cast<size_t>(i)].c_str());
      return 1;
    }
    keylime::Verifier::NodeConfig config;
    config.agent = machines[static_cast<size_t>(i)]->address();
    config.whitelist = whitelist;
    verifier.AddNode(names[static_cast<size_t>(i)], std::move(config));
  }

  // One poll round = VerifyFleet across the whole fleet, driven to
  // completion through the simulated fabric.
  std::vector<keylime::VerificationResult> results(kFleetSize);
  auto poll_round = [&]() -> double {
    const auto start = Clock::now();
    auto round = [&]() -> sim::Task {
      co_await verifier.VerifyFleet(names, results.data());
    };
    sim.Spawn(round());
    sim.Run();
    return MillisSince(start);
  };
  // The pre-batching path: one VerifyNode task per node, signatures
  // verified one at a time.  Timed once at the end for the old-vs-new row.
  auto legacy_round = [&]() -> double {
    const auto start = Clock::now();
    for (int i = 0; i < kFleetSize; ++i) {
      auto one = [&](int node) -> sim::Task {
        co_await verifier.VerifyNode(names[static_cast<size_t>(node)],
                                     &results[static_cast<size_t>(node)]);
      };
      sim.Spawn(one(i));
    }
    sim.Run();
    return MillisSince(start);
  };
  auto check_round = [&](const char* what) -> bool {
    for (int i = 0; i < kFleetSize; ++i) {
      if (!results[static_cast<size_t>(i)].passed) {
        std::fprintf(stderr, "%s failed for %s: %s\n", what,
                     names[static_cast<size_t>(i)].c_str(),
                     results[static_cast<size_t>(i)].failure.c_str());
        return false;
      }
    }
    return true;
  };

  const double first_round_ms = poll_round();
  if (!check_round("first round")) {
    return 1;
  }
  double steady_total_ms = 0;
  double steady_max_ms = 0;
  const uint64_t steady_events_start = sim.events_processed();
  for (int r = 0; r < steady_rounds; ++r) {
    const double ms = poll_round();
    steady_total_ms += ms;
    if (ms > steady_max_ms) {
      steady_max_ms = ms;
    }
  }
  const uint64_t steady_events = sim.events_processed() - steady_events_start;
  if (!check_round("attestation")) {
    return 1;
  }

  const double steady_mean_ms = steady_total_ms / steady_rounds;
  const double per_node_us = steady_mean_ms * 1000.0 / kFleetSize;
  // Host-side event rate over the steady rounds: the number the scheduler
  // and frame-path optimisations move, tracked by scripts/check.sh --bench.
  const double events_per_second =
      static_cast<double>(steady_events) / (steady_total_ms / 1e3);
  const double ns_per_event =
      steady_total_ms * 1e6 / static_cast<double>(steady_events);

  // Batch-size / worker sweep (one timed round per config), then the
  // legacy per-node path.  All of these run after the steady measurement
  // so they cannot disturb it.
  struct SweepRow {
    int batch;
    int workers;
    double ms;
  };
  std::vector<SweepRow> sweep_rows;
  if (sweep) {
    const int batches[] = {1, 8, 16, 32, 64, 128};
    for (const int b : batches) {
      verifier.SetFleetOptions({.workers = 1, .batch_size = b});
      const double ms = poll_round();
      if (!check_round("sweep round")) {
        return 1;
      }
      sweep_rows.push_back({b, 1, ms});
    }
    // Worker rounds sign the quotes and verify the signature shards on
    // the Simulation's sim::WorkerPool (real cores when the host has
    // them; on a single-core host the rows measure pool overhead
    // honestly).
    const int worker_counts[] = {2, 4, 8};
    for (const int w : worker_counts) {
      verifier.SetFleetOptions({.workers = w, .batch_size = batch_size});
      const double ms = poll_round();
      if (!check_round("sweep round")) {
        return 1;
      }
      sweep_rows.push_back({batch_size, w, ms});
    }
    verifier.SetFleetOptions({.workers = workers, .batch_size = batch_size});
  }
  const double legacy_ms = legacy_round();
  if (!check_round("legacy round")) {
    return 1;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"fleet_nodes\": %d,\n"
               "  \"steady_rounds\": %d,\n"
               "  \"batch_size\": %d,\n"
               "  \"workers\": %d,\n"
               "  \"host_cores\": %u,\n"
               "  \"first_round_wall_ms\": %.3f,\n"
               "  \"steady_round_wall_ms_mean\": %.3f,\n"
               "  \"steady_round_wall_ms_max\": %.3f,\n"
               "  \"per_node_wall_us_mean\": %.3f,\n"
               "  \"legacy_round_wall_ms\": %.3f,\n"
               "  \"steady_events\": %llu,\n"
               "  \"events_per_second\": %.0f,\n"
               "  \"ns_per_event\": %.1f,\n"
               "  \"verifications\": %llu,\n"
               "  \"batched_verifications\": %llu,\n"
               "  \"batch_bisections\": %u,\n"
               "  \"batch_sqrt_recoveries\": %u,\n"
               "  \"batch_rejected_hints\": %u,\n"
               "  \"aik_cache_hits\": %llu,\n"
               "  \"aik_cache_misses\": %llu,\n"
               "  \"boot_log_cache_hits\": %llu,\n"
               "  \"boot_log_cache_misses\": %llu,\n",
               kFleetSize, steady_rounds, batch_size, workers,
               std::thread::hardware_concurrency(), first_round_ms,
               steady_mean_ms, steady_max_ms, per_node_us, legacy_ms,
               static_cast<unsigned long long>(steady_events),
               events_per_second, ns_per_event,
               static_cast<unsigned long long>(verifier.verifications()),
               static_cast<unsigned long long>(verifier.batched_verifications()),
               verifier.batch_stats().bisections,
               verifier.batch_stats().sqrt_recoveries,
               verifier.batch_stats().rejected_hints,
               static_cast<unsigned long long>(verifier.aik_cache_hits()),
               static_cast<unsigned long long>(verifier.aik_cache_misses()),
               static_cast<unsigned long long>(verifier.boot_log_cache_hits()),
               static_cast<unsigned long long>(verifier.boot_log_cache_misses()));
  std::fprintf(f, "  \"sweep\": [");
  for (size_t i = 0; i < sweep_rows.size(); ++i) {
    std::fprintf(f, "%s\n    {\"batch_size\": %d, \"workers\": %d, \"round_wall_ms\": %.3f}",
                 i == 0 ? "" : ",", sweep_rows[i].batch, sweep_rows[i].workers,
                 sweep_rows[i].ms);
  }
  std::fprintf(f, "%s]\n}\n", sweep_rows.empty() ? "" : "\n  ");
  std::fclose(f);

  std::printf("fleet of %d nodes, %d steady rounds (batch %d, %d workers)\n",
              kFleetSize, steady_rounds, batch_size, workers);
  std::printf("first poll round (cold caches):    %8.1f ms wall\n", first_round_ms);
  std::printf("steady poll round mean:            %8.1f ms wall (%.1f us/node)\n",
              steady_mean_ms, per_node_us);
  std::printf("steady poll round max:             %8.1f ms wall\n", steady_max_ms);
  std::printf("legacy per-node round:             %8.1f ms wall\n", legacy_ms);
  std::printf("steady event rate:                 %8.0f events/s (%.1f ns/event)\n",
              events_per_second, ns_per_event);
  std::printf("AIK cache: %llu hits / %llu misses; boot-log cache: %llu / %llu\n",
              static_cast<unsigned long long>(verifier.aik_cache_hits()),
              static_cast<unsigned long long>(verifier.aik_cache_misses()),
              static_cast<unsigned long long>(verifier.boot_log_cache_hits()),
              static_cast<unsigned long long>(verifier.boot_log_cache_misses()));
  for (const SweepRow& row : sweep_rows) {
    std::printf("sweep batch=%-4d workers=%d:         %8.1f ms wall\n", row.batch,
                row.workers, row.ms);
  }
  std::printf("wrote %s\n", out_path);
#if BOLTED_OBS
  if (registry != nullptr) {
    if (!registry->WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
      return 1;
    }
    std::printf("wrote chrome trace to %s\n", trace_path);
  }
#endif
  return 0;
}
