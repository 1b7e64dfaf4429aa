// Property-based and parameterized sweeps (TEST_P) over the substrate
// invariants: crypto round-trips and tamper-rejection across sizes and
// keys, hash-chaining laws, fluid-model conservation and fairness,
// serialization fuzzing, and structural VLAN isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/crypto/aes_gcm.h"
#include "src/crypto/aes_xts.h"
#include "src/crypto/cpu.h"
#include "src/crypto/drbg.h"
#include "src/crypto/p256.h"
#include "src/crypto/p256_field.h"
#include "src/crypto/p256_field_x64.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"
#include "src/crypto/wire.h"
#include "src/net/network.h"
#include "src/net/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/tpm/event_log.h"
#include "src/tpm/tpm.h"
#include "tests/oracle/montgomery.h"
#include "tests/oracle/p256_reference.h"

namespace bolted {
namespace {

using crypto::Bytes;
using crypto::Drbg;

// --- AES-GCM round-trip + tamper rejection across payload sizes ------------

class GcmSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(GcmSizeSweep, SealOpenRoundTripAndTamper) {
  const size_t size = GetParam();
  Drbg drbg(uint64_t{1000 + size});
  const Bytes key = drbg.Generate(32);
  const Bytes nonce = drbg.Generate(12);
  const Bytes plaintext = drbg.Generate(size);
  const Bytes aad = drbg.Generate(size % 37);

  crypto::AesGcm gcm(key);
  Bytes sealed = gcm.Seal(nonce, plaintext, aad);
  const auto opened = gcm.Open(nonce, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);

  if (!sealed.empty()) {
    // Flip a pseudo-random bit: must always fail authentication.
    const size_t index = drbg.Generate(8)[0] % sealed.size();
    sealed[index] ^= static_cast<uint8_t>(1u << (drbg.Generate(1)[0] % 8));
    EXPECT_FALSE(gcm.Open(nonce, sealed, aad).has_value()) << "size=" << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GcmSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 63, 64,
                                           255, 256, 1000, 1500, 4096, 9000,
                                           65536));

// --- AES-XTS sector round-trip across sector sizes and numbers ------------

class XtsSweep : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(XtsSweep, RoundTripAndTweakSensitivity) {
  const auto [sector_bytes, sector_number] = GetParam();
  Drbg drbg(uint64_t{7 * sector_bytes + sector_number});
  const Bytes key = drbg.Generate(64);
  crypto::AesXts xts(key);

  Bytes sector = drbg.Generate(sector_bytes);
  const Bytes original = sector;
  xts.EncryptSector(sector_number, sector);
  EXPECT_NE(sector, original);
  Bytes other = original;
  xts.EncryptSector(sector_number + 1, other);
  EXPECT_NE(other, sector);  // tweak changes everything
  xts.DecryptSector(sector_number, sector);
  EXPECT_EQ(sector, original);
}

INSTANTIATE_TEST_SUITE_P(
    Sectors, XtsSweep,
    ::testing::Combine(::testing::Values(16, 512, 4096),
                       ::testing::Values(0ull, 1ull, 0xffffffffull,
                                         0xffffffffffffffffull)));

// --- ECDSA across many keys -------------------------------------------------

class EcdsaKeySweep : public ::testing::TestWithParam<int> {};

TEST_P(EcdsaKeySweep, SignVerifyCrossRejection) {
  const crypto::P256& curve = crypto::P256::Instance();
  Drbg drbg(static_cast<uint64_t>(GetParam()) * 7919);
  const crypto::U256 priv_a = curve.PrivateKeyFromSeed(drbg.Generate(32));
  const crypto::U256 priv_b = curve.PrivateKeyFromSeed(drbg.Generate(32));
  const crypto::EcPoint pub_a = curve.PublicKey(priv_a);
  const crypto::EcPoint pub_b = curve.PublicKey(priv_b);
  EXPECT_TRUE(curve.IsOnCurve(pub_a));
  EXPECT_NE(pub_a, pub_b);

  const crypto::Digest h1 = crypto::Sha256::Hash("m1-" + std::to_string(GetParam()));
  const crypto::Digest h2 = crypto::Sha256::Hash("m2-" + std::to_string(GetParam()));
  const crypto::EcdsaSignature sig = curve.Sign(priv_a, h1);
  EXPECT_TRUE(curve.Verify(pub_a, h1, sig));
  EXPECT_FALSE(curve.Verify(pub_a, h2, sig));
  EXPECT_FALSE(curve.Verify(pub_b, h1, sig));
}

INSTANTIATE_TEST_SUITE_P(Keys, EcdsaKeySweep, ::testing::Range(0, 12));

// --- SHA-256 streaming equivalence across chunkings ------------------------

class ShaChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ShaChunkSweep, ChunkedEqualsOneShot) {
  const size_t chunk = GetParam();
  Drbg drbg(uint64_t{55});
  const Bytes data = drbg.Generate(10000);
  crypto::Sha256 h;
  for (size_t off = 0; off < data.size(); off += chunk) {
    const size_t n = std::min(chunk, data.size() - off);
    h.Update(crypto::ByteView(data.data() + off, n));
  }
  EXPECT_EQ(h.Finish(), crypto::Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ShaChunkSweep,
                         ::testing::Values(1, 3, 55, 63, 64, 65, 127, 128, 129,
                                           1000, 10000));

// --- Montgomery field laws over random operands -----------------------------

class MontgomeryLawSweep : public ::testing::TestWithParam<int> {};

TEST_P(MontgomeryLawSweep, RingAxiomsHold) {
  // Check over both the P-256 field prime and group order.
  for (const char* modulus_hex :
       {"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
        "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"}) {
    const oracle::Montgomery m(crypto::U256::FromHexString(modulus_hex));
    Drbg drbg(static_cast<uint64_t>(GetParam()) * 104729);
    const crypto::U256 a = m.Reduce(crypto::U256::FromBytes(drbg.Generate(32)));
    const crypto::U256 b = m.Reduce(crypto::U256::FromBytes(drbg.Generate(32)));
    const crypto::U256 c = m.Reduce(crypto::U256::FromBytes(drbg.Generate(32)));
    const crypto::U256 am = m.ToMont(a);
    const crypto::U256 bm = m.ToMont(b);
    const crypto::U256 cm = m.ToMont(c);

    // Commutativity and associativity of multiplication.
    EXPECT_EQ(m.Mul(am, bm), m.Mul(bm, am));
    EXPECT_EQ(m.Mul(m.Mul(am, bm), cm), m.Mul(am, m.Mul(bm, cm)));
    // Distributivity: a*(b+c) == a*b + a*c.
    EXPECT_EQ(m.Mul(am, m.Add(bm, cm)), m.Add(m.Mul(am, bm), m.Mul(am, cm)));
    // Additive inverse and subtraction consistency.
    EXPECT_EQ(m.Sub(am, bm), m.Add(am, m.Neg(bm)));
    // Exponent law: a^2 * a == a^3.
    const crypto::U256 three{{3, 0, 0, 0}};
    EXPECT_EQ(m.Mul(m.Sqr(am), am), oracle::Exp(m, am, three));
  }
}

INSTANTIATE_TEST_SUITE_P(Operands, MontgomeryLawSweep, ::testing::Range(0, 10));

// --- Production field layer vs the oracle's generic Montgomery class --------
//
// field::Fp and field::Fn are the only field code P-256 runs on; the
// oracle's runtime class shares no code with them, so every operation must
// agree value for value.  Operands are DRBG field elements plus the edges
// 0, 1 and m-1; Reduce also sees m and 2^256-1, and raw DRBG words.

template <typename Field>
void ExpectFieldMatchesOracle(uint64_t seed) {
  using crypto::U256;
  const oracle::Montgomery ref(Field::Modulus());
  U256 m_minus_1;
  crypto::SubBorrow(Field::Modulus(), U256::One(), m_minus_1);
  std::vector<U256> operands = {U256::Zero(), U256::One(), m_minus_1};
  std::vector<U256> unreduced = {Field::Modulus(), U256{{~0ull, ~0ull, ~0ull, ~0ull}}};
  Drbg drbg(seed);
  for (int i = 0; i < 8; ++i) {
    const U256 raw = U256::FromBytes(drbg.Generate(32));
    operands.push_back(ref.Reduce(raw));
    unreduced.push_back(raw);
  }

  EXPECT_EQ(Field::One(), ref.one_mont());
  EXPECT_EQ(Field::R2(), ref.ToMont(ref.one_mont()));  // ToMont(R) = R^2
  for (const U256& a : operands) {
    EXPECT_EQ(Field::ToMont(a), ref.ToMont(a));
    EXPECT_EQ(Field::FromMont(a), ref.FromMont(a));
    EXPECT_EQ(Field::Reduce(a), ref.Reduce(a));
    EXPECT_EQ(Field::Neg(a), ref.Neg(a));
    EXPECT_EQ(Field::Sqr(a), ref.Sqr(a));
    for (const U256& b : operands) {
      EXPECT_EQ(Field::Add(a, b), ref.Add(a, b));
      EXPECT_EQ(Field::Sub(a, b), ref.Sub(a, b));
      EXPECT_EQ(Field::Mul(a, b), ref.Mul(a, b));
    }
  }
  for (const U256& a : unreduced) {
    EXPECT_EQ(Field::Reduce(a), ref.Reduce(a));
  }
}

class FieldOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(FieldOracleSweep, FpAndFnMatchTheGenericClass) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919 + 1;
  ExpectFieldMatchesOracle<crypto::field::Fp>(seed);
  ExpectFieldMatchesOracle<crypto::field::Fn>(seed);
}

INSTANTIATE_TEST_SUITE_P(Operands, FieldOracleSweep, ::testing::Range(0, 8));

// --- The x86-64 field kernel against the portable one -------------------------
//
// field::FpX64 must return field::Fp's exact value for every operation.
// The edges 0, 1, p-1, p, 2^256-1, R mod p and R^2 mod p meet in every
// ordered pair, unreduced ones included, because ToMont multiplies any
// 256-bit value; the sweep's 8 shards add 2^20 DRBG operand pairs.  Hosts
// without BMI2 and ADX, and non-x86-64 builds, skip.

constexpr const char* kNoX64Kernel =
    "the x86-64 P-256 field kernel needs an x86-64 build on a CPU with BMI2 and ADX";

bool X64KernelRuns() {
#if defined(BOLTED_P256_X64)
  return crypto::cpu::Detect().bmi2 && crypto::cpu::Detect().adx;
#else
  return false;
#endif
}

#if defined(BOLTED_P256_X64)
// Counts the operations on which the kernels differ and keeps the first.
struct KernelDiff {
  uint64_t mismatches = 0;
  std::string first;

  void Check(const crypto::U256& a, const crypto::U256& b) {
    using crypto::field::Fp;
    using crypto::field::FpX64;
    const auto note = [&](const char* op, const crypto::U256& want,
                          const crypto::U256& got) {
      if (want != got && mismatches++ == 0) {
        first = std::string(op) + "(" + a.ToHexString() + ", " + b.ToHexString() +
                "): portable " + want.ToHexString() + ", x86-64 " + got.ToHexString();
      }
    };
    note("Mul", Fp::Mul(a, b), FpX64::Mul(a, b));
    note("Sqr", Fp::Sqr(a), FpX64::Sqr(a));
    note("Add", Fp::Add(a, b), FpX64::Add(a, b));
    note("Sub", Fp::Sub(a, b), FpX64::Sub(a, b));
    note("ToMont", Fp::ToMont(a), FpX64::ToMont(a));
    note("FromMont", Fp::FromMont(a), FpX64::FromMont(a));
  }
};
#endif

TEST(X64FieldKernel, EdgesMatchThePortableKernel) {
  if (!X64KernelRuns()) {
    GTEST_SKIP() << kNoX64Kernel;
  }
#if defined(BOLTED_P256_X64)
  using crypto::U256;
  using crypto::field::Fp;
  U256 p_minus_1;
  crypto::SubBorrow(Fp::Modulus(), U256::One(), p_minus_1);
  const U256 edges[] = {U256::Zero(),  U256::One(),
                        p_minus_1,     Fp::Modulus(),
                        U256{{~0ull, ~0ull, ~0ull, ~0ull}},
                        Fp::One(),     Fp::R2()};
  KernelDiff diff;
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      diff.Check(a, b);
    }
  }
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
#endif
}

class X64FieldSweep : public ::testing::TestWithParam<int> {};

TEST_P(X64FieldSweep, MatchesThePortableKernel) {
  if (!X64KernelRuns()) {
    GTEST_SKIP() << kNoX64Kernel;
  }
#if defined(BOLTED_P256_X64)
  constexpr size_t kPairsPerShard = size_t{1} << 17;  // 8 shards: 2^20 pairs
  constexpr size_t kPairsPerDraw = 1024;
  Drbg drbg(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  KernelDiff diff;
  for (size_t done = 0; done < kPairsPerShard; done += kPairsPerDraw) {
    const Bytes words = drbg.Generate(kPairsPerDraw * 64);
    for (size_t i = 0; i < kPairsPerDraw; ++i) {
      const crypto::ByteView pair(words.data() + 64 * i, 64);
      diff.Check(crypto::U256::FromBytes(pair.subspan(0, 32)),
                 crypto::U256::FromBytes(pair.subspan(32, 32)));
    }
  }
  EXPECT_EQ(diff.mismatches, 0u) << diff.first;
#endif
}

INSTANTIATE_TEST_SUITE_P(Shards, X64FieldSweep, ::testing::Range(0, 8));

// --- Fluid model: conservation and fairness ---------------------------------

class ResourceFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ResourceFairnessSweep, EqualFlowsFinishTogetherAndConserveWork) {
  const int flows = GetParam();
  sim::Simulation simu;
  net::SharedResource resource(simu, 1000.0, "r");
  std::vector<double> finish(static_cast<size_t>(flows), -1);
  auto worker = [&](int i) -> sim::Task {
    co_await resource.Consume(500.0);
    finish[static_cast<size_t>(i)] = simu.now().ToSecondsF();
  };
  for (int i = 0; i < flows; ++i) {
    simu.Spawn(worker(i));
  }
  simu.Run();

  const double expected = 500.0 * flows / 1000.0;
  for (const double f : finish) {
    EXPECT_NEAR(f, expected, 1e-6);
  }
  EXPECT_NEAR(resource.total_served(), 500.0 * flows, 1e-3);
  EXPECT_EQ(resource.active_consumers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, ResourceFairnessSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

class StaggeredArrivalSweep : public ::testing::TestWithParam<int> {};

TEST_P(StaggeredArrivalSweep, WorkConservedUnderChurn) {
  // Arrivals/departures at arbitrary times must neither create nor lose
  // service (conservation), regardless of interleaving.
  const int flows = GetParam();
  sim::Simulation simu(static_cast<uint64_t>(flows));
  net::SharedResource resource(simu, 100.0, "r");
  double total_demand = 0;
  auto worker = [&](double start, double amount) -> sim::Task {
    co_await sim::Delay(simu, sim::Duration::SecondsF(start));
    co_await resource.Consume(amount);
  };
  for (int i = 0; i < flows; ++i) {
    const double start = simu.rng().Uniform(0, 5);
    const double amount = simu.rng().Uniform(1, 200);
    total_demand += amount;
    simu.Spawn(worker(start, amount));
  }
  simu.Run();
  EXPECT_NEAR(resource.total_served(), total_demand, total_demand * 1e-6);
  // The busy period can never beat capacity.
  EXPECT_GE(simu.now().ToSecondsF() + 1e-9, total_demand / 100.0);
}

INSTANTIATE_TEST_SUITE_P(Churn, StaggeredArrivalSweep,
                         ::testing::Values(2, 7, 20, 50));

// --- Quote / event-log fuzzing ----------------------------------------------

class QuoteFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuoteFuzzSweep, CorruptedQuotesNeverVerify) {
  tpm::Tpm machine_tpm(crypto::ToBytes("fuzz-tpm"), tpm::TpmLatencyModel{});
  machine_tpm.CreateAik();
  machine_tpm.ExtendPcr(0, crypto::Sha256::Hash("fw"));
  const tpm::Quote quote = machine_tpm.MakeQuote(crypto::ToBytes("nonce"), 0x3);
  const Bytes wire = quote.Serialize();

  Drbg drbg(static_cast<uint64_t>(GetParam()) * 31337);
  Bytes corrupted = wire;
  // Corrupt 1-4 pseudo-random bytes.
  const int flips = 1 + GetParam() % 4;
  for (int i = 0; i < flips; ++i) {
    const Bytes r = drbg.Generate(2);
    corrupted[r[0] % corrupted.size()] ^= static_cast<uint8_t>(r[1] | 1);
  }
  const auto parsed = tpm::Quote::Deserialize(corrupted);
  if (parsed.has_value()) {
    // Parsing may succeed, but verification must fail whenever any
    // signature-covered byte changed (flips can cancel; guard against
    // that).  The trailing 64 bytes are the untrusted batch-verification
    // hint: corrupting only them must NOT flip the verdict either way.
    const size_t signed_len = wire.size() - 64;
    const bool signed_bytes_differ = !std::equal(
        wire.begin(), wire.begin() + static_cast<ptrdiff_t>(signed_len),
        corrupted.begin());
    if (signed_bytes_differ) {
      EXPECT_FALSE(tpm::Tpm::VerifyQuote(*parsed, machine_tpm.aik_public()));
    } else if (corrupted != wire) {
      EXPECT_TRUE(tpm::Tpm::VerifyQuote(*parsed, machine_tpm.aik_public()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corruptions, QuoteFuzzSweep, ::testing::Range(0, 20));

// Every prefix of `wire` followed by one extra byte, shared out across the
// 21 sweep parameters (parameter p takes the lengths p, p+21, ...): the
// decoder accepts exactly the lengths in `valid`, and whatever it accepts
// re-encodes to the same bytes.
template <typename Decoded>
void ExpectPrefixesFailClosed(int param, const Bytes& wire,
                              const std::vector<size_t>& valid) {
  Bytes extended = wire;
  extended.push_back(0x5a);
  for (size_t cut = static_cast<size_t>(param); cut <= extended.size(); cut += 21) {
    const crypto::ByteView prefix(extended.data(), cut);
    const auto parsed = Decoded::Deserialize(prefix);
    const bool want = std::find(valid.begin(), valid.end(), cut) != valid.end();
    ASSERT_EQ(parsed.has_value(), want) << cut << " of " << wire.size() << " bytes";
    if (parsed.has_value()) {
      EXPECT_EQ(parsed->Serialize(), Bytes(prefix.begin(), prefix.end()));
    }
  }
}

class EventLogFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(EventLogFuzzSweep, TruncationsNeverCrashAndNeverMisparse) {
  tpm::EventLog log;
  for (int i = 0; i < 5; ++i) {
    log.Add(i, crypto::Sha256::Hash("stage" + std::to_string(i)),
            "stage-" + std::to_string(i));
  }
  const Bytes log_wire = log.Serialize();
  ExpectPrefixesFailClosed<tpm::EventLog>(GetParam(), log_wire, {log_wire.size()});
  EXPECT_EQ(tpm::EventLog::Deserialize(log_wire), log);

  // The same table over a quote with its batch-verification hint (whose
  // hint-less prefix is itself a valid quote) and one without.
  tpm::Tpm machine_tpm(crypto::ToBytes("fuzz-tpm"), tpm::TpmLatencyModel{});
  machine_tpm.CreateAik();
  machine_tpm.ExtendPcr(0, crypto::Sha256::Hash("fw"));
  tpm::Quote quote = machine_tpm.MakeQuote(crypto::ToBytes("nonce"), 0x3);
  ASSERT_TRUE(quote.r_hint.has_value());
  const Bytes hinted = quote.Serialize();
  ExpectPrefixesFailClosed<tpm::Quote>(GetParam(), hinted,
                                       {hinted.size() - 64, hinted.size()});
  quote.r_hint.reset();
  const Bytes plain = quote.Serialize();
  ExpectPrefixesFailClosed<tpm::Quote>(GetParam(), plain, {plain.size()});
}

INSTANTIATE_TEST_SUITE_P(Truncations, EventLogFuzzSweep, ::testing::Range(0, 21));

// The explicit bounds each format keeps on top of the codec: a quote
// carries at most a 1024-byte nonce and one value per PCR, and an event
// names a PCR that exists.
TEST(DecoderBoundsTest, OversizedQuoteFieldsAndBadPcrIndexAreRejected) {
  tpm::Quote quote;
  quote.nonce.assign(1024, 0x11);
  quote.pcr_values.assign(tpm::kNumPcrs, crypto::Sha256::Hash("pcr"));
  ASSERT_TRUE(tpm::Quote::Deserialize(quote.Serialize()).has_value());
  quote.nonce.push_back(0x11);
  EXPECT_FALSE(tpm::Quote::Deserialize(quote.Serialize()).has_value());
  quote.nonce.pop_back();
  quote.pcr_values.push_back(crypto::Sha256::Hash("pcr"));
  EXPECT_FALSE(tpm::Quote::Deserialize(quote.Serialize()).has_value());

  // EventLog::Add asserts the index, so the bad entry is written by hand:
  // count, then (pcr index, measurement, description) per event.
  for (const int pcr : {tpm::kNumPcrs - 1, tpm::kNumPcrs}) {
    const Bytes log = crypto::WireWriter()
                          .U32(1)
                          .U32(static_cast<uint32_t>(pcr))
                          .Digest(crypto::Sha256::Hash("m"))
                          .Str("event")
                          .Take();
    EXPECT_EQ(tpm::EventLog::Deserialize(log).has_value(), pcr < tpm::kNumPcrs) << pcr;
  }
}

// --- Structural VLAN isolation ----------------------------------------------

class IsolationSweep : public ::testing::TestWithParam<int> {};

TEST_P(IsolationSweep, DeliveryIffSharedVlan) {
  sim::Simulation simu(static_cast<uint64_t>(GetParam()));
  net::Network fabric(simu, sim::Duration::Microseconds(1), 1e9);
  constexpr int kEndpoints = 6;
  constexpr int kVlans = 4;
  std::vector<net::Endpoint*> endpoints;
  for (int i = 0; i < kEndpoints; ++i) {
    endpoints.push_back(&fabric.CreateEndpoint("ep" + std::to_string(i)));
    for (int v = 1; v <= kVlans; ++v) {
      if (simu.rng().NextBelow(2) == 1) {
        fabric.AttachToVlan(endpoints.back()->address(), static_cast<uint16_t>(v));
      }
    }
  }

  int delivered = 0;
  int expected = 0;
  auto drain = [&](int i) -> sim::Task {
    for (;;) {
      (void)co_await endpoints[static_cast<size_t>(i)]->inbox().Recv();
      ++delivered;
    }
  };
  for (int i = 0; i < kEndpoints; ++i) {
    simu.Spawn(drain(i));
  }
  for (int i = 0; i < kEndpoints; ++i) {
    for (int j = 0; j < kEndpoints; ++j) {
      if (i == j) {
        continue;
      }
      if (fabric.Reachable(endpoints[static_cast<size_t>(i)]->address(),
                           endpoints[static_cast<size_t>(j)]->address())) {
        ++expected;
      }
      endpoints[static_cast<size_t>(i)]->Post(
          endpoints[static_cast<size_t>(j)]->address(),
          net::Message{.kind = "probe", .payload = {1}});
    }
  }
  simu.Run();
  EXPECT_EQ(delivered, expected);
  EXPECT_EQ(fabric.total_drops(),
            static_cast<uint64_t>(kEndpoints * (kEndpoints - 1) - expected));
}

INSTANTIATE_TEST_SUITE_P(Topologies, IsolationSweep, ::testing::Range(0, 10));

// --- PCR extend is a fold ----------------------------------------------------

class ExtendChainSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExtendChainSweep, LogReplayEqualsDirectExtends) {
  const int events = GetParam();
  tpm::Tpm machine_tpm(crypto::ToBytes("chain"), tpm::TpmLatencyModel{});
  tpm::EventLog log;
  Drbg drbg(static_cast<uint64_t>(events));
  for (int i = 0; i < events; ++i) {
    const int pcr = static_cast<int>(drbg.Generate(1)[0]) % tpm::kNumPcrs;
    crypto::Digest d{};
    const Bytes bytes = drbg.Generate(32);
    std::copy(bytes.begin(), bytes.end(), d.begin());
    machine_tpm.ExtendPcr(pcr, d);
    log.Add(pcr, d, "");
  }
  const auto replayed = log.ReplayPcrs();
  for (int pcr = 0; pcr < tpm::kNumPcrs; ++pcr) {
    EXPECT_EQ(replayed[static_cast<size_t>(pcr)], machine_tpm.ReadPcr(pcr));
  }
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, ExtendChainSweep,
                         ::testing::Values(0, 1, 2, 5, 17, 64, 200));

}  // namespace
}  // namespace bolted
