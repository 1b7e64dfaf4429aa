// Runtime CPU feature detection for the crypto dispatch layer.
//
// Every primitive with an accelerated path (SHA-256, AES, GHASH, XTS)
// probes these flags once when its object is constructed and picks either
// the portable scalar implementation or the SIMD one; P256::Instance()
// picks its field kernel the same way, once per process.  Accelerated
// output is byte-identical to scalar output, so which backend runs never
// affects simulation results — only wall-clock time.
//
// `BOLTED_FORCE_SCALAR=1` in the environment (or SetForceScalar(true)
// from code, e.g. tests and benchmarks) pins the scalar reference paths.

#ifndef SRC_CRYPTO_CPU_H_
#define SRC_CRYPTO_CPU_H_

namespace bolted::crypto::cpu {

struct Features {
  bool aesni = false;   // AES-NI (+SSE4.1): pipelined block/XTS/CTR kernels
  bool pclmul = false;  // PCLMULQDQ: carry-less-multiply GHASH
  bool shani = false;   // SHA extensions: SHA-256 compression
  bool avx2 = false;    // 256-bit integer SIMD (OS must enable YMM state)
  bool bmi2 = false;    // MULX: flagless 64x64->128 multiply (P-256 field)
  bool adx = false;     // ADCX/ADOX: two independent carry chains (P-256 field)
};

// Raw hardware probe, cached after the first call.  Ignores force-scalar.
const Features& Detect();

// Effective features: Detect() masked to all-false while force-scalar is
// active.  This is what dispatch call sites consult.
Features Get();

// Overrides the BOLTED_FORCE_SCALAR environment default at run time.
// Objects constructed while the flag is set capture scalar backends and
// keep them for their lifetime.
void SetForceScalar(bool on);
bool ForceScalarEnabled();

}  // namespace bolted::crypto::cpu

#endif  // SRC_CRYPTO_CPU_H_
