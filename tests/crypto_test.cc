// Crypto primitive tests: NIST/RFC vectors where we have them, plus
// property sweeps (roundtrip, tamper detection, cross-implementation
// invariants).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/aes.h"
#include "src/crypto/aes_gcm.h"
#include "src/crypto/aes_xts.h"
#include "src/crypto/bytes.h"
#include "src/crypto/cpu.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"
#include "tests/oracle/montgomery.h"
#include "tests/oracle/p256_reference.h"

namespace bolted::crypto {
namespace {

using oracle::Montgomery;

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(data), "0001abff");
  EXPECT_EQ(FromHex("0001abff"), data);
  EXPECT_EQ(FromHex("0001ABFF"), data);
}

TEST(BytesTest, FromHexRejectsMalformed) {
  EXPECT_TRUE(FromHex("abc").empty());   // odd length
  EXPECT_TRUE(FromHex("zz").empty());    // non-hex
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEqual(a, b));
  EXPECT_FALSE(ConstantTimeEqual(a, c));
  EXPECT_FALSE(ConstantTimeEqual(a, d));
}

TEST(BytesTest, XorAndAppend) {
  const Bytes a = {0xf0, 0x0f};
  const Bytes b = {0xff, 0xff};
  EXPECT_EQ(Xor(a, b), (Bytes{0x0f, 0xf0}));
  Bytes dst = {1};
  AppendU32(dst, 0x01020304);
  EXPECT_EQ(dst, (Bytes{1, 1, 2, 3, 4}));
}

// FIPS 180-4 / NIST CAVS vectors.
TEST(Sha256Test, NistVectors) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(ByteView(reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size()));
  }
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Bytes data(1023);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  for (size_t chunk : {1u, 7u, 63u, 64u, 65u, 512u}) {
    Sha256 h;
    for (size_t off = 0; off < data.size(); off += chunk) {
      const size_t n = std::min(chunk, data.size() - off);
      h.Update(ByteView(data.data() + off, n));
    }
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "chunk=" << chunk;
  }
}

// RFC 4231 test cases 1, 2 and 7.
TEST(HmacTest, Rfc4231Vectors) {
  {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(ToHex(DigestView(HmacSha256(key, ToBytes("Hi There")))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  }
  {
    EXPECT_EQ(
        ToHex(DigestView(HmacSha256(ToBytes("Jefe"),
                                    ToBytes("what do ya want for nothing?")))),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
  {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(ToHex(DigestView(HmacSha256(
                  key, ToBytes("Test Using Larger Than Block-Size Key - "
                               "Hash Key First")))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHex("000102030405060708090a0b0c");
  const Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, LengthHandling) {
  const Bytes ikm = {1, 2, 3};
  EXPECT_EQ(Hkdf({}, ikm, {}, 0).size(), 0u);
  EXPECT_EQ(Hkdf({}, ikm, {}, 31).size(), 31u);
  EXPECT_EQ(Hkdf({}, ikm, {}, 32).size(), 32u);
  EXPECT_EQ(Hkdf({}, ikm, {}, 33).size(), 33u);
  // Prefix property: a longer output extends a shorter one.
  const Bytes long_out = Hkdf({}, ikm, {}, 64);
  const Bytes short_out = Hkdf({}, ikm, {}, 16);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

// FIPS 197 Appendix C.3.
TEST(AesTest, Fips197Vector) {
  const Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes plaintext = FromHex("00112233445566778899aabbccddeeff");
  Aes256 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plaintext.data(), out);
  EXPECT_EQ(ToHex(ByteView(out, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.DecryptBlock(out, back);
  EXPECT_EQ(ToHex(ByteView(back, 16)), ToHex(plaintext));
}

TEST(AesTest, EncryptDecryptRoundTripSweep) {
  Drbg drbg(uint64_t{99});
  for (int i = 0; i < 50; ++i) {
    const Bytes key = drbg.Generate(32);
    const Bytes block = drbg.Generate(16);
    Aes256 aes(key);
    uint8_t ct[16];
    uint8_t pt[16];
    aes.EncryptBlock(block.data(), ct);
    aes.DecryptBlock(ct, pt);
    EXPECT_EQ(Bytes(pt, pt + 16), block);
    EXPECT_NE(Bytes(ct, ct + 16), block);
  }
}

TEST(AesXtsTest, RoundTripAndSectorIndependence) {
  Drbg drbg(uint64_t{7});
  const Bytes key = drbg.Generate(64);
  AesXts xts(key);

  Bytes sector = drbg.Generate(512);
  const Bytes original = sector;
  xts.EncryptSector(5, sector);
  EXPECT_NE(sector, original);

  // The same plaintext at a different sector number encrypts differently.
  Bytes other = original;
  xts.EncryptSector(6, other);
  EXPECT_NE(other, sector);

  xts.DecryptSector(5, sector);
  EXPECT_EQ(sector, original);
}

TEST(AesXtsTest, BlocksWithinSectorDiffer) {
  // Identical plaintext blocks within one sector must produce different
  // ciphertext blocks (the tweak advances per block).
  const Bytes key(64, 0x42);
  AesXts xts(key);
  Bytes sector(512, 0xaa);
  xts.EncryptSector(0, sector);
  const ByteView first(sector.data(), 16);
  const ByteView second(sector.data() + 16, 16);
  EXPECT_NE(Bytes(first.begin(), first.end()), Bytes(second.begin(), second.end()));
}

TEST(AesXtsTest, WrongKeyFailsToDecrypt) {
  Drbg drbg(uint64_t{13});
  const Bytes key1 = drbg.Generate(64);
  const Bytes key2 = drbg.Generate(64);
  AesXts a(key1);
  AesXts b(key2);
  Bytes sector = drbg.Generate(4096);
  const Bytes original = sector;
  a.EncryptSector(100, sector);
  b.DecryptSector(100, sector);
  EXPECT_NE(sector, original);
}

// NIST GCM reference vectors (AES-256): test cases 13 and 14.
TEST(AesGcmTest, NistVectors) {
  const Bytes key(32, 0x00);
  const Bytes nonce(12, 0x00);
  AesGcm gcm(key);
  {
    const Bytes sealed = gcm.Seal(nonce, {}, {});
    EXPECT_EQ(ToHex(sealed), "530f8afbc74536b9a963b4f1c4cb738b");
  }
  {
    const Bytes plaintext(16, 0x00);
    const Bytes sealed = gcm.Seal(nonce, plaintext, {});
    EXPECT_EQ(ToHex(sealed),
              "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919");
  }
}

TEST(AesGcmTest, SealOpenRoundTripWithAad) {
  Drbg drbg(uint64_t{21});
  const Bytes key = drbg.Generate(32);
  AesGcm gcm(key);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    const Bytes nonce = drbg.Generate(12);
    const Bytes plaintext = drbg.Generate(len);
    const Bytes aad = drbg.Generate(len / 2);
    const Bytes sealed = gcm.Seal(nonce, plaintext, aad);
    EXPECT_EQ(sealed.size(), len + AesGcm::kTagSize);
    const auto opened = gcm.Open(nonce, sealed, aad);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(*opened, plaintext);
  }
}

TEST(AesGcmTest, TamperDetection) {
  Drbg drbg(uint64_t{22});
  const Bytes key = drbg.Generate(32);
  const Bytes nonce = drbg.Generate(12);
  AesGcm gcm(key);
  const Bytes plaintext = drbg.Generate(64);
  const Bytes aad = ToBytes("header");
  Bytes sealed = gcm.Seal(nonce, plaintext, aad);

  // Flip one ciphertext bit.
  Bytes corrupted = sealed;
  corrupted[10] ^= 1;
  EXPECT_FALSE(gcm.Open(nonce, corrupted, aad).has_value());

  // Flip one tag bit.
  corrupted = sealed;
  corrupted.back() ^= 1;
  EXPECT_FALSE(gcm.Open(nonce, corrupted, aad).has_value());

  // Wrong AAD.
  EXPECT_FALSE(gcm.Open(nonce, sealed, ToBytes("other")).has_value());

  // Wrong nonce.
  const Bytes other_nonce = drbg.Generate(12);
  EXPECT_FALSE(gcm.Open(other_nonce, sealed, aad).has_value());

  // Truncated input.
  EXPECT_FALSE(gcm.Open(nonce, ByteView(sealed.data(), 8), aad).has_value());
}

TEST(U256Test, BytesRoundTrip) {
  const U256 v = U256::FromHexString(
      "00112233445566778899aabbccddeeff0123456789abcdef0011223344556677");
  EXPECT_EQ(v.ToHexString(),
            "00112233445566778899aabbccddeeff0123456789abcdef0011223344556677");
  EXPECT_EQ(U256::FromBytes(v.ToBytes()), v);
}

TEST(U256Test, ComparisonAndBits) {
  const U256 one = U256::One();
  const U256 two{{2, 0, 0, 0}};
  EXPECT_LT(one, two);
  EXPECT_TRUE(one.IsOdd());
  EXPECT_FALSE(two.IsOdd());
  EXPECT_TRUE(one.Bit(0));
  EXPECT_FALSE(one.Bit(1));
  const U256 high = U256::FromHexString(
      "8000000000000000000000000000000000000000000000000000000000000000");
  EXPECT_TRUE(high.Bit(255));
}

TEST(U256Test, AddSubCarryBorrow) {
  const U256 max = U256::FromHexString(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U256 out;
  EXPECT_EQ(AddCarry(max, U256::One(), out), 1u);
  EXPECT_TRUE(out.IsZero());
  EXPECT_EQ(SubBorrow(U256::Zero(), U256::One(), out), 1u);
  EXPECT_EQ(out, max);
}

TEST(MontgomeryTest, RoundTripAndIdentities) {
  const Montgomery fp(U256::FromHexString(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"));
  Drbg drbg(uint64_t{31});
  for (int i = 0; i < 20; ++i) {
    const U256 a = fp.Reduce(U256::FromBytes(drbg.Generate(32)));
    EXPECT_EQ(fp.FromMont(fp.ToMont(a)), a);
    const U256 am = fp.ToMont(a);
    // a * 1 == a
    EXPECT_EQ(fp.Mul(am, fp.one_mont()), am);
    // a + (-a) == 0
    EXPECT_TRUE(fp.Add(am, fp.Neg(am)).IsZero());
    // a * a^-1 == 1 (skip zero), the inverse lifted into the domain
    if (!a.IsZero()) {
      const U256 inv_mont = fp.ToMont(ModInverseOdd(a, fp.modulus()));
      EXPECT_EQ(fp.Mul(am, inv_mont), fp.one_mont());
    }
  }
}

TEST(MontgomeryTest, KnownProduct) {
  // 3 * 5 = 15 mod p.
  const Montgomery fp(U256::FromHexString(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"));
  const U256 three{{3, 0, 0, 0}};
  const U256 five{{5, 0, 0, 0}};
  const U256 fifteen{{15, 0, 0, 0}};
  EXPECT_EQ(fp.FromMont(fp.Mul(fp.ToMont(three), fp.ToMont(five))), fifteen);
}

TEST(MontgomeryTest, ExpMatchesRepeatedMul) {
  const Montgomery fn(U256::FromHexString(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"));
  const U256 base = fn.ToMont(U256{{123456789, 0, 0, 0}});
  U256 expected = fn.one_mont();
  for (int i = 0; i < 13; ++i) {
    expected = fn.Mul(expected, base);
  }
  EXPECT_EQ(oracle::Exp(fn, base, U256{{13, 0, 0, 0}}), expected);
}

TEST(P256Test, GeneratorOnCurveAndPrivateOneYieldsGenerator) {
  const P256& curve = P256::Instance();
  const EcPoint g = curve.PublicKey(U256::One());
  EXPECT_EQ(g.x.ToHexString(),
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
  EXPECT_EQ(g.y.ToHexString(),
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
  EXPECT_TRUE(curve.IsOnCurve(g));
}

TEST(P256Test, ScalarTwoMatchesDoubling) {
  // 2G computed via the public API must be on the curve and differ from G.
  const P256& curve = P256::Instance();
  const EcPoint g2 = curve.PublicKey(U256{{2, 0, 0, 0}});
  EXPECT_TRUE(curve.IsOnCurve(g2));
  const EcPoint g = curve.PublicKey(U256::One());
  EXPECT_NE(g2, g);
  // Known value: x(2G) for P-256.
  EXPECT_EQ(g2.x.ToHexString(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
}

TEST(P256Test, PointEncodingRoundTrip) {
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("seed-1"));
  const EcPoint pub = curve.PublicKey(priv);
  const Bytes encoded = pub.Encode();
  EXPECT_EQ(encoded.size(), 65u);
  const auto decoded = EcPoint::Decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pub);
}

TEST(P256Test, DecodeRejectsInvalid) {
  EXPECT_FALSE(EcPoint::Decode(Bytes(64, 0)).has_value());  // wrong length
  Bytes bad(65, 0);
  bad[0] = 0x04;
  bad[64] = 7;  // (0, 7) is not on the curve
  EXPECT_FALSE(EcPoint::Decode(bad).has_value());
}

TEST(P256Test, SignVerifyRoundTrip) {
  const P256& curve = P256::Instance();
  Drbg drbg(uint64_t{77});
  for (int i = 0; i < 8; ++i) {
    const U256 priv = curve.PrivateKeyFromSeed(drbg.Generate(32));
    const EcPoint pub = curve.PublicKey(priv);
    const Digest hash = Sha256::Hash("message-" + std::to_string(i));
    const EcdsaSignature sig = curve.Sign(priv, hash);
    EXPECT_TRUE(curve.Verify(pub, hash, sig));
  }
}

TEST(P256Test, VerifyRejectsWrongMessageKeyOrSignature) {
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("signer"));
  const EcPoint pub = curve.PublicKey(priv);
  const Digest hash = Sha256::Hash("the message");
  const EcdsaSignature sig = curve.Sign(priv, hash);

  EXPECT_FALSE(curve.Verify(pub, Sha256::Hash("another message"), sig));

  const U256 other_priv = curve.PrivateKeyFromSeed(ToBytes("impostor"));
  EXPECT_FALSE(curve.Verify(curve.PublicKey(other_priv), hash, sig));

  EcdsaSignature tampered = sig;
  U256 bumped;
  AddCarry(tampered.r, U256::One(), bumped);
  tampered.r = bumped;
  EXPECT_FALSE(curve.Verify(pub, hash, tampered));

  EcdsaSignature zero_sig{U256::Zero(), U256::Zero()};
  EXPECT_FALSE(curve.Verify(pub, hash, zero_sig));
}

TEST(P256Test, SignatureIsDeterministic) {
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("det"));
  const Digest hash = Sha256::Hash("stable input");
  const EcdsaSignature a = curve.Sign(priv, hash);
  const EcdsaSignature b = curve.Sign(priv, hash);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.s, b.s);
}

TEST(P256Test, EcdhSharedSecretAgrees) {
  const P256& curve = P256::Instance();
  const U256 a = curve.PrivateKeyFromSeed(ToBytes("alice"));
  const U256 b = curve.PrivateKeyFromSeed(ToBytes("bob"));
  const auto ab = curve.SharedSecret(a, curve.PublicKey(b));
  const auto ba = curve.SharedSecret(b, curve.PublicKey(a));
  ASSERT_TRUE(ab.has_value());
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(*ab, *ba);

  const U256 c = curve.PrivateKeyFromSeed(ToBytes("carol"));
  const auto ac = curve.SharedSecret(a, curve.PublicKey(c));
  ASSERT_TRUE(ac.has_value());
  EXPECT_NE(*ab, *ac);
}

TEST(P256Test, OrderTimesGeneratorIsInfinity) {
  const P256& curve = P256::Instance();
  // n*G = infinity, so SharedSecret with scalar n must fail; (n-1)*G = -G.
  const U256 n = curve.order();
  U256 n_minus_1;
  SubBorrow(n, U256::One(), n_minus_1);
  const EcPoint neg_g = curve.PublicKey(n_minus_1);
  const EcPoint g = curve.PublicKey(U256::One());
  EXPECT_EQ(neg_g.x, g.x);
  EXPECT_NE(neg_g.y, g.y);
}

// RFC 6979 A.2.5 (P-256, SHA-256): the private key, public key, and the
// deterministic signatures for "sample" and "test".  Our nonce derivation
// differs, so we don't reproduce these r/s values when signing — but any
// correct verifier must accept them, which exercises the full verify
// stack (hash mapping, scalar inversion, joint ladders, x-mod-n check)
// against an external ground truth.
void ExpectRfc6979KnownAnswers(const P256& curve) {
  const oracle::P256Reference& reference = oracle::P256Reference::Instance();
  const U256 priv = U256::FromHexString(
      "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
  EcPoint pub;
  pub.x = U256::FromHexString(
      "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  pub.y = U256::FromHexString(
      "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
  EXPECT_TRUE(curve.IsOnCurve(pub));
  EXPECT_EQ(curve.PublicKey(priv), pub);

  struct Vector {
    std::string_view message;
    std::string_view r;
    std::string_view s;
  };
  const Vector vectors[] = {
      {"sample",
       "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716",
       "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"},
      {"test",
       "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367",
       "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083"},
  };
  const auto prepared = curve.Prepare(pub);
  ASSERT_TRUE(prepared.has_value());
  for (const Vector& v : vectors) {
    const Digest hash = Sha256::Hash(ToBytes(v.message));
    const EcdsaSignature sig{U256::FromHexString(v.r), U256::FromHexString(v.s)};
    EXPECT_TRUE(curve.Verify(pub, hash, sig));
    EXPECT_TRUE(curve.Verify(*prepared, hash, sig));
    EXPECT_TRUE(reference.Verify(pub, hash, sig));
  }
}

// The portable kernel here; P256KernelTest runs the x86-64 one.
TEST(P256Test, Rfc6979VerifyKnownAnswers) {
  ExpectRfc6979KnownAnswers(P256::Portable());
}

// Wycheproof-style rejection cases: out-of-range scalars, truncated
// encodings, and invalid public keys must be rejected by every verify
// path, not just the reference one.
void ExpectOutOfRangeScalarsRejected(const P256& curve) {
  const oracle::P256Reference& reference = oracle::P256Reference::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("range-checks"));
  const EcPoint pub = curve.PublicKey(priv);
  const auto prepared = curve.Prepare(pub);
  ASSERT_TRUE(prepared.has_value());
  const Digest hash = Sha256::Hash("ranged message");
  const EcdsaSignature good = curve.Sign(priv, hash);

  U256 n_plus_1;
  AddCarry(curve.order(), U256::One(), n_plus_1);
  const U256 bad_scalars[] = {U256::Zero(), curve.order(), n_plus_1,
                              U256{{~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0},
                                    ~uint64_t{0}}}};
  for (const U256& bad : bad_scalars) {
    const EcdsaSignature bad_r{bad, good.s};
    const EcdsaSignature bad_s{good.r, bad};
    EXPECT_FALSE(curve.Verify(pub, hash, bad_r));
    EXPECT_FALSE(curve.Verify(pub, hash, bad_s));
    EXPECT_FALSE(curve.Verify(*prepared, hash, bad_r));
    EXPECT_FALSE(curve.Verify(*prepared, hash, bad_s));
    EXPECT_FALSE(reference.Verify(pub, hash, bad_r));
    EXPECT_FALSE(reference.Verify(pub, hash, bad_s));
  }
  // Sanity: the unmodified signature still passes everywhere.
  EXPECT_TRUE(curve.Verify(pub, hash, good));
  EXPECT_TRUE(curve.Verify(*prepared, hash, good));
  EXPECT_TRUE(reference.Verify(pub, hash, good));
}

TEST(P256Test, VerifyRejectsOutOfRangeSignatureScalars) {
  ExpectOutOfRangeScalarsRejected(P256::Portable());
}

TEST(P256Test, SignatureDecodeRejectsTruncatedEncodings) {
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("encoder"));
  const Digest hash = Sha256::Hash("encoded message");
  const Bytes wire = curve.Sign(priv, hash).Encode();
  ASSERT_EQ(wire.size(), 64u);
  EXPECT_TRUE(EcdsaSignature::Decode(wire).has_value());
  for (const size_t len : {size_t{0}, size_t{1}, size_t{32}, size_t{63}}) {
    EXPECT_FALSE(EcdsaSignature::Decode(ByteView(wire).subspan(0, len)).has_value());
  }
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(EcdsaSignature::Decode(extended).has_value());
}

void ExpectInvalidPublicKeysRejected(const P256& curve) {
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("valid-signer"));
  const EcPoint pub = curve.PublicKey(priv);
  const Digest hash = Sha256::Hash("some message");
  const EcdsaSignature sig = curve.Sign(priv, hash);

  EcPoint off_curve = pub;
  U256 bumped;
  AddCarry(off_curve.y, U256::One(), bumped);
  off_curve.y = bumped;
  EXPECT_FALSE(curve.IsOnCurve(off_curve));
  EXPECT_FALSE(curve.Verify(off_curve, hash, sig));
  EXPECT_FALSE(curve.Prepare(off_curve).has_value());

  EcPoint infinity;
  infinity.infinity = true;
  EXPECT_FALSE(curve.Verify(infinity, hash, sig));
  EXPECT_FALSE(curve.Prepare(infinity).has_value());
}

TEST(P256Test, VerifyAndPrepareRejectInvalidPublicKeys) {
  ExpectInvalidPublicKeysRejected(P256::Portable());
}

// The fast comb/wNAF paths must agree with the pre-PR double-and-add
// ladder over random scalars and the adversarial edge scalars (tiny,
// near-order, sparse windows).
TEST(P256Test, FastScalarMulMatchesReferenceSweep) {
  const P256& curve = P256::Instance();
  const oracle::P256Reference& reference = oracle::P256Reference::Instance();
  Drbg drbg(uint64_t{2024});
  const EcPoint g = curve.PublicKey(U256::One());

  std::vector<U256> scalars;
  for (int i = 0; i < 12; ++i) {
    scalars.push_back(curve.PrivateKeyFromSeed(drbg.Generate(32)));
  }
  U256 n_minus_1, n_minus_2;
  SubBorrow(curve.order(), U256::One(), n_minus_1);
  SubBorrow(n_minus_1, U256::One(), n_minus_2);
  scalars.push_back(U256::One());
  scalars.push_back(U256{{2, 0, 0, 0}});
  scalars.push_back(n_minus_1);
  scalars.push_back(n_minus_2);
  scalars.push_back(U256{{0, 0, 1, 0}});     // 2^128: all low windows zero
  scalars.push_back(U256{{0xfff, 0, 0, 1}}); // sparse: only ends populated

  const EcPoint point = curve.PublicKey(curve.PrivateKeyFromSeed(ToBytes("base")));
  for (const U256& k : scalars) {
    EXPECT_EQ(curve.PublicKey(k), reference.Multiply(k, g));
    EXPECT_EQ(curve.Multiply(k, point), reference.Multiply(k, point));
  }
  EXPECT_TRUE(curve.Multiply(curve.order(), point).infinity);
  EXPECT_TRUE(reference.Multiply(curve.order(), point).infinity);
}

// The comb+binary-inversion Sign must emit byte-identical signatures to
// the reference path (same nonce derivation, same r and s), so swapping
// the backend can never invalidate previously recorded quotes.
TEST(P256Test, SignMatchesReferenceByteForByte) {
  const P256& curve = P256::Instance();
  const oracle::P256Reference& reference = oracle::P256Reference::Instance();
  Drbg drbg(uint64_t{4242});
  for (int i = 0; i < 12; ++i) {
    const U256 priv = curve.PrivateKeyFromSeed(drbg.Generate(32));
    const Digest hash = Sha256::Hash(drbg.Generate(48));
    const EcdsaSignature fast = curve.Sign(priv, hash);
    const EcdsaSignature ref = reference.Sign(priv, hash);
    EXPECT_EQ(fast.Encode(), ref.Encode());
  }
}

TEST(P256Test, VerifyPathsAgreeOnRandomizedDecisions) {
  const P256& curve = P256::Instance();
  const oracle::P256Reference& reference = oracle::P256Reference::Instance();
  Drbg drbg(uint64_t{31337});
  for (int i = 0; i < 8; ++i) {
    const U256 priv = curve.PrivateKeyFromSeed(drbg.Generate(32));
    const EcPoint pub = curve.PublicKey(priv);
    const auto prepared = curve.Prepare(pub);
    ASSERT_TRUE(prepared.has_value());
    EXPECT_EQ(prepared->point(), pub);
    const Digest hash = Sha256::Hash(drbg.Generate(40));
    const EcdsaSignature sig = curve.Sign(priv, hash);

    EXPECT_TRUE(curve.Verify(pub, hash, sig));
    EXPECT_TRUE(curve.Verify(*prepared, hash, sig));
    EXPECT_TRUE(reference.Verify(pub, hash, sig));

    EcdsaSignature tampered = sig;
    U256 bumped;
    AddCarry(tampered.s, U256::One(), bumped);
    tampered.s = bumped;
    const bool fast = curve.Verify(pub, hash, tampered);
    const bool fast_prepared = curve.Verify(*prepared, hash, tampered);
    const bool ref = reference.Verify(pub, hash, tampered);
    EXPECT_EQ(fast, ref);
    EXPECT_EQ(fast_prepared, ref);
    EXPECT_FALSE(ref);
  }
}

TEST(P256Test, PreparedKeyVerifiesManyMessages) {
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(ToBytes("aik"));
  const auto prepared = curve.Prepare(curve.PublicKey(priv));
  ASSERT_TRUE(prepared.has_value());
  for (int i = 0; i < 16; ++i) {
    const Digest hash = Sha256::Hash("quote-" + std::to_string(i));
    EXPECT_TRUE(curve.Verify(*prepared, hash, curve.Sign(priv, hash)));
    EXPECT_FALSE(curve.Verify(*prepared, Sha256::Hash("other-" + std::to_string(i)),
                              curve.Sign(priv, hash)));
  }
}

// --- Both field kernels in one process ---------------------------------------
//
// P256::Portable() runs field::Fp on every host; P256::X64() runs
// field::FpX64 where this build and CPU have BMI2 and ADX, and the tests
// below skip without it.  Every key, signature, secret, prepared table
// and verdict must come out identical on the two.

constexpr const char* kNoX64Kernel =
    "the x86-64 P-256 field kernel needs an x86-64 build on a CPU with BMI2 and ADX";

TEST(P256KernelTest, InstanceRunsTheKernelTheCpuOffers) {
  const cpu::Features features = cpu::Get();
  const bool x64 = features.bmi2 && features.adx && P256::X64() != nullptr;
  EXPECT_EQ(P256::Instance().kernel(), x64 ? P256::Kernel::kX64 : P256::Kernel::kPortable);
  EXPECT_EQ(P256::Portable().kernel(), P256::Kernel::kPortable);
  if (P256::X64() != nullptr) {
    EXPECT_EQ(P256::X64()->kernel(), P256::Kernel::kX64);
    EXPECT_NE(P256::X64(), &P256::Portable());
  }
}

TEST(P256KernelTest, Rfc6979VerifyKnownAnswersOnX64) {
  const P256* x64 = P256::X64();
  if (x64 == nullptr) {
    GTEST_SKIP() << kNoX64Kernel;
  }
  ExpectRfc6979KnownAnswers(*x64);
}

TEST(P256KernelTest, WycheproofRejectionsOnX64) {
  const P256* x64 = P256::X64();
  if (x64 == nullptr) {
    GTEST_SKIP() << kNoX64Kernel;
  }
  ExpectOutOfRangeScalarsRejected(*x64);
  ExpectInvalidPublicKeysRejected(*x64);
}

TEST(P256KernelTest, KeysSignaturesAndSecretsAreIdenticalOnBothKernels) {
  const P256* x64 = P256::X64();
  if (x64 == nullptr) {
    GTEST_SKIP() << kNoX64Kernel;
  }
  const P256& portable = P256::Portable();
  Drbg drbg(uint64_t{27});
  for (int i = 0; i < 24; ++i) {
    const U256 priv = portable.PrivateKeyFromSeed(drbg.Generate(32));
    const U256 peer_priv = portable.PrivateKeyFromSeed(drbg.Generate(32));
    const Digest hash = Sha256::Hash(drbg.Generate(48));

    const EcPoint pub = portable.PublicKey(priv);
    ASSERT_EQ(x64->PublicKey(priv), pub);
    const EcPoint peer = portable.PublicKey(peer_priv);
    EXPECT_EQ(x64->SharedSecret(priv, peer), portable.SharedSecret(priv, peer));
    EXPECT_EQ(x64->Multiply(peer_priv, pub), portable.Multiply(peer_priv, pub));

    const EcdsaSignature sig = portable.Sign(priv, hash);
    EXPECT_EQ(x64->Sign(priv, hash).Encode(), sig.Encode());
    EcPoint r_portable;
    EcPoint r_x64;
    const EcdsaSignature even = portable.Sign(priv, hash, &r_portable);
    EXPECT_EQ(x64->Sign(priv, hash, &r_x64).Encode(), even.Encode());
    EXPECT_EQ(r_x64, r_portable);

    const auto prepared = portable.Prepare(pub);
    const auto prepared_x64 = x64->Prepare(pub);
    ASSERT_TRUE(prepared.has_value());
    ASSERT_TRUE(prepared_x64.has_value());
    EXPECT_TRUE(*prepared_x64 == *prepared);

    EcdsaSignature tampered = sig;
    U256 bumped;
    AddCarry(tampered.s, U256::One(), bumped);
    tampered.s = bumped;
    for (const EcdsaSignature& s : {sig, even, tampered}) {
      const bool verdict = portable.Verify(pub, hash, s);
      EXPECT_EQ(x64->Verify(pub, hash, s), verdict);
      EXPECT_EQ(x64->Verify(*prepared_x64, hash, s), verdict);
      EXPECT_EQ(portable.Verify(*prepared, hash, s), verdict);
    }
    EXPECT_TRUE(x64->Verify(pub, hash, sig));
    EXPECT_FALSE(x64->Verify(pub, hash, tampered));
  }
}

// Batches of 12 quotes-shaped entries over three keys: half carry the
// signer's R hint and half leave R to the square-root recovery.  The
// clean batch passes on the single RLC check; the forged one bisects,
// and both kernels must reach the same verdicts through the same
// bisections.
TEST(P256KernelTest, VerifyBatchIsIdenticalOnBothKernels) {
  const P256* x64 = P256::X64();
  if (x64 == nullptr) {
    GTEST_SKIP() << kNoX64Kernel;
  }
  const P256& portable = P256::Portable();
  Drbg drbg(uint64_t{2027});
  std::vector<U256> privs;
  std::vector<P256::PreparedKey> keys;
  for (int k = 0; k < 3; ++k) {
    privs.push_back(portable.PrivateKeyFromSeed(drbg.Generate(32)));
    keys.push_back(*portable.Prepare(portable.PublicKey(privs.back())));
  }
  constexpr size_t kEntries = 12;
  std::vector<EcPoint> r_points(kEntries);
  std::vector<P256::BatchEntry> entries(kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    const Digest hash = Sha256::Hash(drbg.Generate(40));
    const EcdsaSignature sig = portable.Sign(privs[i % 3], hash, &r_points[i]);
    entries[i] = {&keys[i % 3], hash, sig, i % 2 == 0 ? &r_points[i] : nullptr};
  }
  for (const bool forge : {false, true}) {
    if (forge) {
      entries[7].message_hash = Sha256::Hash("forged");
    }
    bool ok_portable[kEntries];
    bool ok_x64[kEntries];
    P256::BatchStats stats_portable;
    P256::BatchStats stats_x64;
    const bool all_portable = portable.VerifyBatch(entries, ok_portable, &stats_portable);
    const bool all_x64 = x64->VerifyBatch(entries, ok_x64, &stats_x64);
    EXPECT_EQ(all_x64, all_portable);
    EXPECT_EQ(all_x64, !forge);
    for (size_t i = 0; i < kEntries; ++i) {
      EXPECT_EQ(ok_x64[i], ok_portable[i]) << "entry " << i;
      EXPECT_EQ(ok_x64[i], !(forge && i == 7)) << "entry " << i;
    }
    EXPECT_EQ(stats_x64.bisections, stats_portable.bisections);
    EXPECT_EQ(stats_x64.sqrt_recoveries, stats_portable.sqrt_recoveries);
    EXPECT_EQ(stats_x64.rejected_hints, stats_portable.rejected_hints);
    EXPECT_EQ(stats_x64.bisections == 0, !forge);
  }
}

TEST(U256Test, BinaryInversionMatchesFermat) {
  const U256 p = U256::FromHexString(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  const Montgomery field(p);
  Drbg drbg(uint64_t{99});
  for (int i = 0; i < 16; ++i) {
    const U256 a = field.Reduce(U256::FromBytes(drbg.Generate(32)));
    if (a.IsZero()) {
      continue;
    }
    // ModInverseOdd works outside the Montgomery domain: lift its result
    // in and compare with the Fermat inverse of a's Montgomery form.
    const U256 plain_inv = ModInverseOdd(a, p);
    EXPECT_EQ(field.ToMont(plain_inv),
              oracle::FermatInverse(field, field.ToMont(a)));
    EXPECT_EQ(field.FromMont(field.Mul(field.ToMont(a), field.ToMont(plain_inv))),
              U256::One());
  }
}

TEST(DrbgTest, DeterministicAndSeedSensitive) {
  Drbg a(uint64_t{5});
  Drbg b(uint64_t{5});
  Drbg c(uint64_t{6});
  EXPECT_EQ(a.Generate(100), b.Generate(100));
  Drbg a2(uint64_t{5});
  EXPECT_NE(a2.Generate(100), c.Generate(100));
}

TEST(DrbgTest, ReseedChangesStream) {
  Drbg a(uint64_t{5});
  Drbg b(uint64_t{5});
  b.Reseed(ToBytes("extra"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

// ---------------------------------------------------------------------------
// Backend dispatch: the KATs below run against BOTH the scalar reference and
// the SIMD backend (when the CPU has one), and the sweeps check the two
// produce byte-identical output.  Objects capture their backend at
// construction, so toggling force-scalar between constructions is enough.

class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : saved_(cpu::ForceScalarEnabled()) {
    cpu::SetForceScalar(on);
  }
  ~ScopedForceScalar() { cpu::SetForceScalar(saved_); }

 private:
  bool saved_;
};

// Runs fn once forced-scalar and once with whatever the CPU offers.  The
// second run only exercises SIMD paths on machines that have the ISA
// extensions; on others both runs use the scalar reference, which keeps the
// test meaningful everywhere.
template <typename Fn>
void ForEachBackend(Fn&& fn) {
  {
    ScopedForceScalar scalar(true);
    fn("scalar");
  }
  {
    ScopedForceScalar native(false);
    fn("dispatched");
  }
}

// NIST CAVP SHA256ShortMsg.rsp vectors (Len = 8 and Len = 16).
TEST(BackendTest, Sha256CavpShortMessages) {
  ForEachBackend([](const char* backend) {
    EXPECT_EQ(DigestHex(Sha256::Hash(FromHex("bd"))),
              "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b")
        << backend;
    EXPECT_EQ(DigestHex(Sha256::Hash(FromHex("5fd4"))),
              "7c4fbf484498d21b487b9d61de8914b2eadaf2698712936d47c3ada2558f6788")
        << backend;
  });
}

// AES-256-GCM test case 16 from the McGrew/Viega GCM spec (the vector set
// NIST CAVP reuses): 60-byte plaintext, 20-byte AAD.
TEST(BackendTest, AesGcmCavpVectorWithAad) {
  const Bytes key = FromHex(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const Bytes nonce = FromHex("cafebabefacedbaddecaf888");
  const Bytes plaintext = FromHex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = FromHex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const std::string expected_ct =
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662";
  const std::string expected_tag = "76fc6ece0f4e1768cddf8853bb2d551b";
  ForEachBackend([&](const char* backend) {
    AesGcm gcm(key);
    const Bytes sealed = gcm.Seal(nonce, plaintext, aad);
    ASSERT_EQ(sealed.size(), plaintext.size() + AesGcm::kTagSize) << backend;
    EXPECT_EQ(ToHex(ByteView(sealed.data(), plaintext.size())), expected_ct)
        << backend;
    EXPECT_EQ(ToHex(ByteView(sealed.data() + plaintext.size(), AesGcm::kTagSize)),
              expected_tag)
        << backend;
    const auto opened = gcm.Open(nonce, sealed, aad);
    ASSERT_TRUE(opened.has_value()) << backend;
    EXPECT_EQ(*opened, plaintext) << backend;
  });
}

TEST(BackendTest, Sha256ScalarMatchesDispatched) {
  Drbg drbg(uint64_t{41});
  for (size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    const Bytes data = drbg.Generate(len);
    Digest scalar_digest;
    {
      ScopedForceScalar scalar(true);
      scalar_digest = Sha256::Hash(data);
    }
    EXPECT_EQ(Sha256::Hash(data), scalar_digest) << "len=" << len;
  }
}

TEST(BackendTest, HmacScalarMatchesDispatched) {
  Drbg drbg(uint64_t{43});
  for (size_t len : {0u, 17u, 64u, 333u, 2048u}) {
    const Bytes key = drbg.Generate(32);
    const Bytes msg = drbg.Generate(len);
    Digest scalar_mac;
    {
      ScopedForceScalar scalar(true);
      scalar_mac = HmacSha256(key, msg);
    }
    EXPECT_EQ(HmacSha256(key, msg), scalar_mac) << "len=" << len;
  }
}

TEST(BackendTest, AesGcmScalarMatchesDispatched) {
  Drbg drbg(uint64_t{47});
  auto check = [&](size_t len, size_t aad_len) {
    const Bytes key = drbg.Generate(32);
    const Bytes nonce = drbg.Generate(12);
    const Bytes plaintext = drbg.Generate(len);
    const Bytes aad = drbg.Generate(aad_len);
    Bytes scalar_sealed;
    {
      ScopedForceScalar scalar(true);
      scalar_sealed = AesGcm(key).Seal(nonce, plaintext, aad);
    }
    AesGcm gcm(key);
    EXPECT_EQ(gcm.Seal(nonce, plaintext, aad), scalar_sealed) << "len=" << len;
    const auto opened = gcm.Open(nonce, scalar_sealed, aad);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(*opened, plaintext) << "len=" << len;
  };
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 128u, 1500u, 9000u}) {
    check(len, len % 48);
  }
  // The ESP shape (an 8-byte sequence-number AAD) on both sides of the
  // 128-byte CTR lane loop, with and without a tail.
  for (size_t len : {127u, 129u, 255u, 256u, 257u, 8192u, 8200u}) {
    check(len, 8);
  }
}

TEST(BackendTest, AesXtsScalarMatchesDispatched) {
  Drbg drbg(uint64_t{53});
  for (size_t sector_size : {512u, 4096u}) {
    const Bytes key = drbg.Generate(64);
    const Bytes plaintext = drbg.Generate(sector_size * 3);
    // An AesXts picks its backend when it is built, so this one runs the
    // scalar rounds in both directions for its whole life.
    std::optional<AesXts> scalar_xts;
    Bytes scalar_ct = plaintext;
    {
      ScopedForceScalar scalar(true);
      scalar_xts.emplace(key);
      scalar_xts->EncryptSectors(7, sector_size, scalar_ct);
    }
    AesXts xts(key);
    Bytes ct = plaintext;
    xts.EncryptSectors(7, sector_size, ct);
    EXPECT_EQ(ct, scalar_ct) << "sector_size=" << sector_size;
    Bytes scalar_pt = ct;
    scalar_xts->DecryptSectors(7, sector_size, scalar_pt);
    EXPECT_EQ(scalar_pt, plaintext) << "sector_size=" << sector_size;
    xts.DecryptSectors(7, sector_size, ct);
    EXPECT_EQ(ct, plaintext) << "sector_size=" << sector_size;
  }
}

TEST(BackendTest, BulkSectorsMatchesPerSectorCalls) {
  Drbg drbg(uint64_t{59});
  const Bytes key = drbg.Generate(64);
  ForEachBackend([&](const char* backend) {
    AesXts xts(key);
    const Bytes plaintext = drbg.Generate(512 * 5);
    Bytes bulk = plaintext;
    xts.EncryptSectors(1000, 512, bulk);
    Bytes per_sector = plaintext;
    for (uint64_t i = 0; i < 5; ++i) {
      xts.EncryptSector(1000 + i,
                        std::span<uint8_t>(per_sector.data() + i * 512, 512));
    }
    EXPECT_EQ(bulk, per_sector) << backend;
  });
}

TEST(BackendTest, SealToMatchesSeal) {
  Drbg drbg(uint64_t{61});
  ForEachBackend([&](const char* backend) {
    const Bytes key = drbg.Generate(32);
    const Bytes nonce = drbg.Generate(12);
    const Bytes plaintext = drbg.Generate(100);
    const Bytes aad = drbg.Generate(16);
    AesGcm gcm(key);
    const Bytes sealed = gcm.Seal(nonce, plaintext, aad);
    Bytes out(plaintext.size() + AesGcm::kTagSize + 2, 0xee);
    gcm.SealTo(nonce, plaintext, aad, out.data() + 1);
    EXPECT_EQ(Bytes(out.begin() + 1, out.end() - 1), sealed) << backend;
    EXPECT_EQ(out.front(), 0xee) << backend;  // no out-of-bounds writes
    EXPECT_EQ(out.back(), 0xee) << backend;
  });
}

}  // namespace
}  // namespace bolted::crypto
