// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum the
// trace spool's block format uses to detect torn writes and bit rot
// (DESIGN.md §10). Two implementations behind one entry point: the x86
// SSE4.2 crc32 instruction when the CPU has it (runtime-detected once;
// NTRACE_NO_SIMD=1 in the environment forces the fallback), and a
// slice-by-8 table fallback whose eight 256-entry tables consume 8
// input bytes per iteration with no byte-at-a-time dependency chain.
// Either way checksumming a shipment frame stays well below the cost of
// writing it. Matches the iSCSI / RFC 3720 polynomial so the unit tests
// can pin against published vectors.

#ifndef SRC_BASE_CRC32C_H_
#define SRC_BASE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ntrace {

// Extends a running CRC-32C with `size` more bytes. Start from 0;
// Crc32cExtend(Crc32cExtend(0, a, n), b, m) == Crc32c(concat(a, b)).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

// The portable slice-by-8 path, used when SSE4.2 is absent. Exposed so the
// tests can assert hardware and portable paths agree on this machine.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32c(const void* data, size_t size) {
  return Crc32cExtend(0, data, size);
}

}  // namespace ntrace

#endif  // SRC_BASE_CRC32C_H_
