#include "src/integrity/adler32.h"

#include <algorithm>
#include <array>

namespace sdc {
namespace {

constexpr uint32_t kAdlerModulus = 65521;
// zlib's NMAX: the most bytes whose unreduced sums fit uint32_t when a and b start below
// the modulus.
constexpr size_t kAdlerNmax = 5552;
constexpr uint64_t kCrc64Polynomial = 0xC96C5795D7870F42ull;  // ECMA-182, reflected

std::array<uint64_t, 256> BuildCrc64Table() {
  std::array<uint64_t, 256> table{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc64Polynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint64_t, 256>& Crc64Table() {
  static const std::array<uint64_t, 256> table = BuildCrc64Table();
  return table;
}

}  // namespace

uint32_t Adler32(std::span<const uint8_t> data) {
  uint32_t a = 1;
  uint32_t b = 0;
  while (!data.empty()) {
    // Sums congruent to the per-byte reduced ones; kAdlerNmax bytes cannot overflow them.
    const size_t run = std::min(data.size(), kAdlerNmax);
    for (uint8_t byte : data.first(run)) {
      a += byte;
      b += a;
    }
    a %= kAdlerModulus;
    b %= kAdlerModulus;
    data = data.subspan(run);
  }
  return (b << 16) | a;
}

uint32_t Adler32OnProcessor(Processor& cpu, int lcore, std::span<const uint8_t> data) {
  // A routed pair may hold up to 0xffff each; 16 unreduced bytes on top of that stay far
  // inside uint32_t, and reducing once per block gives the per-byte reduced sums.
  uint32_t a = 1;
  uint32_t b = 0;
  size_t in_block = 0;
  for (uint8_t byte : data) {
    a += byte;
    b += a;
    if (++in_block == 16) {
      // Route the running pair once per block, like an unrolled SIMD implementation.
      const uint32_t packed = ((b % kAdlerModulus) << 16) | (a % kAdlerModulus);
      const uint32_t routed = cpu.ExecuteU32(lcore, OpKind::kIntAdd, packed);
      a = routed & 0xffffu;
      b = routed >> 16;
      in_block = 0;
    }
  }
  if (in_block > 0) {
    a %= kAdlerModulus;
    b %= kAdlerModulus;
  }
  return (b << 16) | a;
}

uint64_t Crc64(std::span<const uint8_t> data) {
  uint64_t crc = ~uint64_t{0};
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ Crc64Table()[(crc ^ byte) & 0xffu];
  }
  return ~crc;
}

uint64_t Crc64OnProcessor(Processor& cpu, int lcore, std::span<const uint8_t> data) {
  uint64_t crc = ~uint64_t{0};
  size_t index = 0;
  while (index < data.size()) {
    const size_t block_end = std::min(index + 8, data.size());
    for (; index < block_end; ++index) {
      crc = (crc >> 8) ^ Crc64Table()[(crc ^ data[index]) & 0xffu];
    }
    crc = cpu.ExecuteRaw(lcore, OpKind::kCrc32Step, crc, DataType::kBin64);
  }
  return ~crc;
}

}  // namespace sdc
