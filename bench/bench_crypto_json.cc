// Emits BENCH_crypto.json: throughput of each crypto primitive under the
// scalar reference and the runtime-dispatched backend, the P-256 field
// kernels, plus event-queue ops/sec.  Self-contained (std::chrono only)
// so the file can be regenerated anywhere and diffed across commits.
//
// Usage: bench_crypto_json [output-path]   (default: BENCH_crypto.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_cli.h"
#include "src/crypto/aes_gcm.h"
#include "src/crypto/aes_xts.h"
#include "src/crypto/bytes.h"
#include "src/crypto/cpu.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/p256.h"
#include "src/crypto/p256_field.h"
#include "src/crypto/p256_field_x64.h"
#include "src/crypto/sha256.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "tests/oracle/p256_reference.h"

namespace {

using Clock = std::chrono::steady_clock;

// Runs fn repeatedly for at least kMinSeconds and returns calls/sec.
template <typename Fn>
double MeasureRate(Fn&& fn) {
  constexpr double kMinSeconds = 0.25;
  // Warm-up and batch sizing.
  fn();
  uint64_t batch = 1;
  for (;;) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < batch; ++i) {
      fn();
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= kMinSeconds) {
      return static_cast<double>(batch) / elapsed;
    }
    batch = elapsed > 1e-4 ? static_cast<uint64_t>(
                                 static_cast<double>(batch) * 1.3 *
                                 kMinSeconds / elapsed)
                           : batch * 8;
  }
}

struct Row {
  std::string name;
  std::string unit;  // "bytes_per_second" or "ops_per_second"
  double scalar = 0;
  double dispatched = 0;
};

// Measures bytes/sec of fn (which processes `bytes` per call) under both
// backends.
template <typename MakeFn>
Row BackendRow(const std::string& name, size_t bytes, MakeFn&& make_fn) {
  namespace cpu = bolted::crypto::cpu;
  Row row{name, "bytes_per_second", 0, 0};
  {
    cpu::SetForceScalar(true);
    auto fn = make_fn();
    row.scalar = MeasureRate(fn) * static_cast<double>(bytes);
  }
  {
    cpu::SetForceScalar(false);
    auto fn = make_fn();
    row.dispatched = MeasureRate(fn) * static_cast<double>(bytes);
  }
  return row;
}

// P-256 field kernel rows: ops/s of one link in a dependent chain
// x = op(x, y), the shape the ladders run.  The chain's last value feeds
// g_sink so the loop stays live.
volatile uint64_t g_sink = 0;

struct FpMul {
  template <class F>
  static bolted::crypto::U256 Run(const bolted::crypto::U256& x,
                                  const bolted::crypto::U256& y) {
    return F::Mul(x, y);
  }
};
struct FpSqr {
  template <class F>
  static bolted::crypto::U256 Run(const bolted::crypto::U256& x,
                                  const bolted::crypto::U256&) {
    return F::Sqr(x);
  }
};
struct FpAdd {
  template <class F>
  static bolted::crypto::U256 Run(const bolted::crypto::U256& x,
                                  const bolted::crypto::U256& y) {
    return F::Add(x, y);
  }
};

template <class Op, class F>
double FieldChainRate(const bolted::crypto::U256& x0, const bolted::crypto::U256& y) {
  constexpr int kChain = 1024;
  bolted::crypto::U256 x = x0;
  const double rate = MeasureRate([&] {
    for (int i = 0; i < kChain; ++i) {
      x = Op::template Run<F>(x, y);
    }
  });
  g_sink = g_sink ^ x.limb[0];
  return rate * kChain;
}

// "scalar" is the portable field::Fp; "dispatched" is the kernel
// P256::Instance() chose (the same Fp where it chose kPortable).
template <class Op>
Row FieldRow(const std::string& name, const bolted::crypto::U256& x0,
             const bolted::crypto::U256& y) {
  using bolted::crypto::P256;
  namespace field = bolted::crypto::field;
  Row row{name, "ops_per_second", 0, 0};
  row.scalar = FieldChainRate<Op, field::Fp>(x0, y);
  row.dispatched = row.scalar;
#if defined(BOLTED_P256_X64)
  if (P256::Instance().kernel() == P256::Kernel::kX64) {
    row.dispatched = FieldChainRate<Op, field::FpX64>(x0, y);
  }
#endif
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bolted::crypto;

  const char* out_path =
      bolted::bench::Cli("usage: bench_crypto_json [output-path]",
                         "BENCH_crypto.json")
          .Parse(argc, argv);
  std::vector<Row> rows;

  {
    Drbg drbg(uint64_t{1});
    const Bytes data = drbg.Generate(1 << 20);
    rows.push_back(BackendRow("sha256_1MiB", data.size(), [&] {
      return [&data] { Sha256::Hash(data); };
    }));
  }
  {
    Drbg drbg(uint64_t{2});
    const Bytes key = drbg.Generate(32);
    const Bytes data = drbg.Generate(4096);
    rows.push_back(BackendRow("hmac_sha256_4KiB", data.size(), [&] {
      return [&key, &data] { HmacSha256(key, data); };
    }));
  }
  {
    Drbg drbg(uint64_t{3});
    const Bytes key = drbg.Generate(64);
    rows.push_back(BackendRow("aes_xts_4KiB_sector", 4096, [&] {
      // The XTS object is constructed inside the backend scope so it
      // captures the right kernel.
      auto xts = std::make_shared<AesXts>(key);
      auto sector = std::make_shared<Bytes>(4096, 0xa5);
      return [xts, sector] { xts->EncryptSector(42, *sector); };
    }));
  }
  {
    Drbg drbg(uint64_t{4});
    const Bytes key = drbg.Generate(32);
    const Bytes nonce = drbg.Generate(12);
    rows.push_back(BackendRow("aes_gcm_seal_9000B", 9000, [&] {
      auto gcm = std::make_shared<AesGcm>(key);
      auto plaintext = std::make_shared<Bytes>(9000, 0x5a);
      auto out = std::make_shared<Bytes>(9000 + AesGcm::kTagSize);
      return [gcm, plaintext, out, nonce] {
        gcm->SealTo(nonce, *plaintext, {}, out->data());
      };
    }));
  }
  cpu::SetForceScalar(false);

  // P-256 rows compare algorithms, not instruction sets: "scalar" is the
  // textbook double-and-add ladder (the test-only oracle in
  // tests/oracle/p256_reference.h) and "dispatched" is the
  // comb/wNAF/Shamir fast path on the field kernel P256::Instance()
  // chose.  All are ops/second of one full operation.
  {
    const P256& curve = P256::Instance();
    const bolted::oracle::P256Reference& textbook =
        bolted::oracle::P256Reference::Instance();
    Drbg drbg(uint64_t{5});
    const U256 priv = curve.PrivateKeyFromSeed(drbg.Generate(32));
    const EcPoint pub = curve.PublicKey(priv);
    const Digest hash = Sha256::Hash(drbg.Generate(64));
    const EcdsaSignature sig = curve.Sign(priv, hash);
    const auto prepared = curve.Prepare(pub);

    Row sign{"ecdsa_p256_sign", "ops_per_second", 0, 0};
    sign.scalar = MeasureRate([&] { textbook.Sign(priv, hash); });
    sign.dispatched = MeasureRate([&] { curve.Sign(priv, hash); });
    rows.push_back(sign);

    // The headline verify row is the attestation hot path: the verifier
    // checks quotes from the same AIK every poll, so the key is prepared
    // once and the short four-table ladder runs per quote.
    Row verify{"ecdsa_p256_verify", "ops_per_second", 0, 0};
    verify.scalar = MeasureRate([&] { textbook.Verify(pub, hash, sig); });
    verify.dispatched = MeasureRate([&] { curve.Verify(*prepared, hash, sig); });
    rows.push_back(verify);

    // Cold verify: a previously unseen key is prepared (on-curve check and
    // the four PreparedKey tables) and then verified — what the verifier
    // pays on an AIK-cache miss.
    Row verify_cold{"ecdsa_p256_verify_cold", "ops_per_second", 0, 0};
    verify_cold.scalar = verify.scalar;
    verify_cold.dispatched = MeasureRate([&] { curve.Verify(pub, hash, sig); });
    rows.push_back(verify_cold);

    // Batched verify, per-signature rate at batch 64 — the width-7
    // PreparedKey tables cut the per-item q-additions here, so this row is
    // the direct evidence for the table-width choice.  "scalar" is the
    // same work as 64 independent prepared verifies.
    {
      constexpr size_t kBatch = 64;
      std::vector<Digest> hashes(kBatch);
      std::vector<EcdsaSignature> sigs(kBatch);
      std::vector<EcPoint> r_points(kBatch);
      std::vector<P256::BatchEntry> entries(kBatch);
      for (size_t i = 0; i < kBatch; ++i) {
        hashes[i] = Sha256::Hash(drbg.Generate(64));
        // Even-y signing with the nonce point shipped as the batch hint —
        // the same wire contract Tpm::MakeQuote follows.
        sigs[i] = curve.Sign(priv, hashes[i], &r_points[i]);
        entries[i] = {&*prepared, hashes[i], sigs[i], &r_points[i]};
      }
      bool ok[kBatch];
      Row verify_batch{"ecdsa_p256_verify_batch64", "ops_per_second", 0, 0};
      verify_batch.scalar = MeasureRate([&] {
        for (size_t i = 0; i < kBatch; ++i) {
          curve.Verify(*prepared, hashes[i], sigs[i]);
        }
      }) * static_cast<double>(kBatch);
      verify_batch.dispatched =
          MeasureRate([&] { curve.VerifyBatch(entries, ok); }) *
          static_cast<double>(kBatch);
      rows.push_back(verify_batch);
    }

    const U256 peer_priv = curve.PrivateKeyFromSeed(drbg.Generate(32));
    const EcPoint peer = curve.PublicKey(peer_priv);
    Row ecdh{"ecdh_p256", "ops_per_second", 0, 0};
    ecdh.scalar = MeasureRate([&] { textbook.SharedSecret(priv, peer); });
    ecdh.dispatched = MeasureRate([&] { curve.SharedSecret(priv, peer); });
    rows.push_back(ecdh);
  }

  {
    Drbg drbg(uint64_t{6});
    const U256 x0 = field::Fp::ToMont(U256::FromBytes(drbg.Generate(32)));
    const U256 y = field::Fp::ToMont(U256::FromBytes(drbg.Generate(32)));
    rows.push_back(FieldRow<FpMul>("p256_fp_mul", x0, y));
    rows.push_back(FieldRow<FpSqr>("p256_fp_sqr", x0, y));
    rows.push_back(FieldRow<FpAdd>("p256_fp_add", x0, y));
  }

  // Event queue: schedule+fire ops/sec (1024-event batches).
  {
    Row row{"event_queue_schedule_fire", "ops_per_second", 0, 0};
    bolted::sim::Simulation sim;
    uint64_t sink = 0;
    constexpr int kBatch = 1024;
    const double rate = MeasureRate([&] {
      for (int i = 0; i < kBatch; ++i) {
        sim.Schedule(bolted::sim::Duration::Nanoseconds(i),
                     [&sink] { ++sink; });
      }
      sim.Run();
    });
    row.scalar = row.dispatched = rate * kBatch;
    rows.push_back(row);
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", "
                 "\"scalar\": %.4g, \"dispatched\": %.4g, "
                 "\"speedup\": %.3g}%s\n",
                 r.name.c_str(), r.unit.c_str(), r.scalar, r.dispatched,
                 r.scalar > 0 ? r.dispatched / r.scalar : 0.0,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  for (const Row& r : rows) {
    std::printf("%-28s scalar %12.4g  dispatched %12.4g  (%.2fx)\n",
                r.name.c_str(), r.scalar, r.dispatched,
                r.scalar > 0 ? r.dispatched / r.scalar : 0.0);
  }
  return 0;
}
