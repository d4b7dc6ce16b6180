#include "src/base/crc32c.h"

#include <cstdlib>
#include <cstring>

namespace ntrace {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Reflected Castagnoli polynomial.

// Slice-by-8 tables, built once on first use (thread-safe static init).
// t[0] is the classic byte table; t[s][b] advances byte b through s extra
// zero bytes, so eight lookups absorb a whole 64-bit word.
struct Tables {
  uint32_t t[8][256];

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
  }
};

#if defined(__x86_64__) || defined(__i386__)
// True when the CPU has the SSE4.2 crc32 instruction and NTRACE_NO_SIMD is
// unset, "" or "0". Any other value forces the portable path, so one
// machine can run the table codec end to end (scan_parity_test_no_simd).
bool UseHardwareCrc() {
  static const bool use = [] {
    const char* v = std::getenv("NTRACE_NO_SIMD");
    const bool disabled = v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
    return !disabled && __builtin_cpu_supports("sse4.2") != 0;
  }();
  return use;
}

// The SSE4.2 crc32 instruction computes exactly this CRC (reflected
// Castagnoli with the same pre/post inversion); the target attribute lets
// the one function use it while the rest of the binary stays baseline.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHw(uint32_t crc, const void* data,
                                                          size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // Alignment-safe load.
    crc64 = __builtin_ia32_crc32di(crc64, word);
    p += 8;
    size -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#endif
  while (size >= 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = __builtin_ia32_crc32si(crc, word);
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
  }
  return ~crc;
}
#endif

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size) {
  static const Tables tables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // Alignment-safe load.
    word ^= crc;
    const uint32_t lo = static_cast<uint32_t>(word);
    const uint32_t hi = static_cast<uint32_t>(word >> 32);
    crc = tables.t[7][lo & 0xFFu] ^ tables.t[6][(lo >> 8) & 0xFFu] ^
          tables.t[5][(lo >> 16) & 0xFFu] ^ tables.t[4][lo >> 24] ^
          tables.t[3][hi & 0xFFu] ^ tables.t[2][(hi >> 8) & 0xFFu] ^
          tables.t[1][(hi >> 16) & 0xFFu] ^ tables.t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
#endif
  while (size-- > 0) {
    crc = (crc >> 8) ^ tables.t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__) || defined(__i386__)
  if (UseHardwareCrc()) {
    return Crc32cExtendHw(crc, data, size);
  }
#endif
  return Crc32cExtendPortable(crc, data, size);
}

}  // namespace ntrace
