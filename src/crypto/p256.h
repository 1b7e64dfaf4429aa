// NIST P-256 (secp256r1) elliptic-curve operations: key generation,
// ECDSA with deterministic (RFC 6979 style) nonces, and ECDH.
//
// This is the signature scheme behind the TPM emulator's endorsement and
// attestation identity keys.  The paper's TPMs use RSA-2048; we substitute
// ECDSA-P256 (documented in DESIGN.md) — the attestation protocol is
// structurally identical and quotes are really signed and verified.
//
// Scalar multiplication (DESIGN.md §6) runs on three cooperating fast
// paths: a fixed-base comb table for multiples of G (Sign, PublicKey,
// ECIES ephemeral keys), width-6 wNAF with precomputed odd multiples for
// arbitrary points (ECDH), and Strauss–Shamir interleaving so Verify
// computes u1·G + u2·Q in one joint double-and-add chain over a
// PreparedKey's tables.  Table points are normalized with Montgomery-trick
// batch inversion.  The tests and the crypto bench check every path
// against a textbook double-and-add ladder kept outside this library.
//
// Scalar multiplication is not constant-time; this library runs inside a
// simulator, not against live adversaries.

#ifndef SRC_CRYPTO_P256_H_
#define SRC_CRYPTO_P256_H_

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "src/crypto/bytes.h"
#include "src/crypto/sha256.h"
#include "src/crypto/u256.h"

namespace bolted::crypto {

struct EcPoint {
  U256 x;
  U256 y;
  bool infinity = false;

  // Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes).
  Bytes Encode() const;
  static std::optional<EcPoint> Decode(ByteView encoded);
  bool operator==(const EcPoint&) const = default;
};

struct EcdsaSignature {
  U256 r;
  U256 s;

  Bytes Encode() const;  // r || s, 64 bytes
  static std::optional<EcdsaSignature> Decode(ByteView encoded);
};

class P256 {
 public:
  // Returns the process-wide curve instance (the tables are immutable).
  static const P256& Instance();

  // Derives a private scalar in [1, n-1] from seed material.
  U256 PrivateKeyFromSeed(ByteView seed) const;
  EcPoint PublicKey(const U256& private_key) const;
  bool IsOnCurve(const EcPoint& point) const;

  EcdsaSignature Sign(const U256& private_key, const Digest& message_hash) const;
  // Like Sign, but also returns the nonce point R = k·G and normalizes the
  // signature to the batch-friendly even-y convention (s ↦ n−s, R ↦ −R
  // when R.y is odd — the same signature, in the variant VerifyBatch's
  // square-root recovery reconstructs from r alone).  The plain Sign
  // output is unchanged, so its known-answer vectors still hold.
  EcdsaSignature Sign(const U256& private_key, const Digest& message_hash,
                      EcPoint* r_point) const;
  // Prepare followed by Verify(PreparedKey, ...): false for a key that is
  // off the curve or infinity.  Callers that check one key repeatedly
  // should keep the PreparedKey.
  bool Verify(const EcPoint& public_key, const Digest& message_hash,
              const EcdsaSignature& signature) const;

  // Affine point in the Montgomery domain of the field prime — the
  // representation the precomputed tables are stored in.
  struct AffineMont {
    U256 x;
    U256 y;
  };

  // A public key that has been decoded, curve-checked, and equipped with
  // precomputed tables exactly once.  Verify(PreparedKey, ...) skips the
  // per-call on-curve check and table build, and — because the tables
  // cover Q, 2^64·Q, 2^128·Q and 2^192·Q — runs the joint ladder over
  // four 64-bit scalar chunks, a 64-doubling chain.  This is the hot path
  // of the continuous-attestation loop (the verifier checks the same AIK
  // every poll).
  class PreparedKey {
   public:
    PreparedKey() = default;
    const EcPoint& point() const { return point_; }

   private:
    friend class P256;
    EcPoint point_;
    // Group j (32 entries) holds the odd multiples 1,3,...,63 of 2^{64j}·Q
    // — width-7 NAF, 8 KB per key.
    std::array<AffineMont, 128> odd_{};
  };

  // Returns nullopt when the point is not on the curve (or is infinity).
  std::optional<PreparedKey> Prepare(const EcPoint& public_key) const;
  bool Verify(const PreparedKey& public_key, const Digest& message_hash,
              const EcdsaSignature& signature) const;

  // --- Batch verification --------------------------------------------------
  // One signature's worth of batch input.  r_hint optionally points at the
  // signer's nonce point R = k·G (plain affine coordinates).  The hint is
  // UNTRUSTED accelerator data: it is only accepted after an on-curve check
  // and x ≡ r (mod n); a wrong-but-plausible hint can at worst force the
  // batch into the bisection fallback, never flip a verdict.  Without a
  // hint, R is recovered by a modular square root, which assumes the
  // signer normalized s so that R has even y (Tpm::MakeQuote does); a
  // signature without that convention still verifies correctly, just
  // through the bisection path.
  struct BatchEntry {
    const PreparedKey* key = nullptr;
    Digest message_hash{};
    EcdsaSignature signature;
    const EcPoint* r_hint = nullptr;
  };
  struct BatchStats {
    uint32_t bisections = 0;       // sub-batch RLC checks that failed
    uint32_t sqrt_recoveries = 0;  // entries that paid the sqrt fallback
    uint32_t rejected_hints = 0;   // r_hints that failed validation
  };
  // Verifies all entries jointly: one multi-scalar check of the random
  // linear combination Σ cᵢ·(u1ᵢ·G + u2ᵢ·Qᵢ − Rᵢ) = O with deterministic
  // 64-bit Fiat–Shamir coefficients cᵢ, sharing a single doubling chain,
  // one fixed-base comb pass, and one batched modular inversion across the
  // whole batch.  On failure the batch is bisected until every bad entry
  // is pinned by an exact single verify — ok[i] always equals what
  // Verify(PreparedKey, ...) would return for entry i (fail-closed).
  // Returns true iff every entry verified.
  bool VerifyBatch(std::span<const BatchEntry> entries, bool* ok,
                   BatchStats* stats = nullptr) const;

  // ECDH: x-coordinate of private_key * peer, as 32 bytes.  Returns
  // nullopt when peer is invalid or the product is the point at infinity.
  std::optional<Bytes> SharedSecret(const U256& private_key, const EcPoint& peer) const;

  // General k·P through the wNAF path (infinity in, or k a multiple of
  // the group order, yields the point at infinity).  Exposed for the
  // old-vs-new equivalence sweeps in tests.
  EcPoint Multiply(const U256& k, const EcPoint& point) const;

  const U256& order() const { return n_; }

 private:
  P256();

  // Jacobian coordinates in the Montgomery domain of fp_.
  struct Jacobian {
    U256 x;
    U256 y;
    U256 z;  // zero limbs = point at infinity
  };

  Jacobian ToJacobian(const EcPoint& p) const;

  // Group law (field::Fp arithmetic, in-place).
  void DoubleFast(Jacobian& p) const;
  void AddJacobianFast(Jacobian& p, const Jacobian& q) const;
  void AddMixed(Jacobian& p, const AffineMont& q, bool negate) const;
  EcPoint ToAffineFast(const Jacobian& p) const;
  // Batch-normalizes Jacobian points (none at infinity) to affine via
  // Montgomery-trick inversion; out must hold in.size() entries.
  void NormalizeBatch(std::span<const Jacobian> in, AffineMont* out) const;
  void BuildOddMultiples(const EcPoint& p, std::array<AffineMont, 16>& out) const;

  Jacobian MulBaseComb(const U256& k) const;
  Jacobian MulWnaf(const U256& k, const std::array<AffineMont, 16>& odd) const;
  // Joint ladder for u1·G + u2·Q: u2 splits into four 64-bit chunks over
  // the PreparedKey's four tables (64 doublings), and u1 is folded in
  // through the fixed-base comb.
  Jacobian MulStraussShamir(const U256& u1, const U256& u2,
                            const std::array<AffineMont, 128>& q_tables) const;

  // Per-entry state shared between the batch RLC check and its bisection
  // retries (defined in p256.cc).
  struct BatchItem;
  // Runs the single multi-scalar RLC check over the listed items; returns
  // whether the combination landed on the point at infinity.
  bool BatchCombinationHolds(const BatchItem* items,
                             std::span<const size_t> idxs) const;
  // Recursive bisection driver over items [lo, hi).
  bool VerifyBatchRange(const BatchItem* items, const BatchEntry* entries,
                        bool* ok, size_t lo, size_t hi, BatchStats* stats) const;

  U256 p_;  // field prime
  U256 n_;  // group order
  Montgomery fp_;
  Montgomery fn_;
  U256 b_mont_;       // curve b in Montgomery form
  U256 three_mont_;   // 3 in Montgomery form
  U256 r2_fp_;        // R^2 mod p, for the inlined divstep inversion
  U256 r2_fn_;        // R^2 mod n
  Jacobian g_;        // base point
  // Fixed-base comb: fixed_[w*4095 + b - 1] = b · 2^{12w} · G for
  // w ∈ [0, 22), b ∈ [1, 4095], so any scalar is a sum of at most 22
  // table points with no doublings.
  std::vector<AffineMont> fixed_;
};

}  // namespace bolted::crypto

#endif  // SRC_CRYPTO_P256_H_
