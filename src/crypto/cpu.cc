#include "src/crypto/cpu.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define BOLTED_CPU_X86 1
#endif

namespace bolted::crypto::cpu {
namespace {

#if defined(BOLTED_CPU_X86)
// XGETBV without -mxsave (the intrinsic requires target flags we don't
// want on this translation unit).
unsigned long long ReadXcr0() {
  unsigned int lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<unsigned long long>(hi) << 32) | lo;
}
#endif

Features Probe() {
  Features f;
#if defined(BOLTED_CPU_X86)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return f;
  }
  f.aesni = (ecx & bit_AES) != 0 && (ecx & bit_SSE4_1) != 0;
  f.pclmul = (ecx & bit_PCLMUL) != 0;

  const bool osxsave = (ecx & bit_OSXSAVE) != 0;
  bool ymm_enabled = false;
  if (osxsave) {
    // XCR0 bits 1 (SSE) and 2 (AVX) must both be set by the OS.
    ymm_enabled = (ReadXcr0() & 0x6) == 0x6;
  }

  unsigned int eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
    f.shani = (ebx7 & bit_SHA) != 0;
    f.avx2 = (ebx7 & bit_AVX2) != 0 && ymm_enabled;
    f.bmi2 = (ebx7 & bit_BMI2) != 0;
    f.adx = (ebx7 & bit_ADX) != 0;
  }
#endif
  return f;
}

bool EnvForceScalar() {
  const char* v = std::getenv("BOLTED_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

// Read by every primitive's constructor, including those built on the
// worker pool's threads (quote signing, batch-verify transcripts).  Relaxed
// suffices: the flag orders nothing else, and callers flip it only between
// runs.
std::atomic<bool> g_force_scalar{EnvForceScalar()};

}  // namespace

const Features& Detect() {
  static const Features f = Probe();
  return f;
}

Features Get() {
  if (g_force_scalar.load(std::memory_order_relaxed)) {
    return Features{};
  }
  return Detect();
}

void SetForceScalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

bool ForceScalarEnabled() {
  return g_force_scalar.load(std::memory_order_relaxed);
}

}  // namespace bolted::crypto::cpu
