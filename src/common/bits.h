// Bit-level views of the operand datatypes studied in the paper (Section 4.2).
//
// SDC records compare an expected result with an actual result at the bit level. The paper
// covers integer types (i16, i32, ui32), IEEE-754 floats (f32, f64) plus x87 80-bit extended
// floats (f64x), and non-numerical payloads (bit, byte, bin16/32/64). All values are carried
// in a 128-bit container (`Word128`) so one analysis pipeline serves every type, including the
// 80-bit one.
//
// The 80-bit encoding is defined portably from `long double` with frexpl/ldexpl; the result
// matches the x87 format (sign, 15-bit biased exponent, explicit integer bit, 63 fraction
// bits) for normal values. On an x87 host the values whose in-memory bytes already are that
// encoding are copied instead.

#ifndef SDC_SRC_COMMON_BITS_H_
#define SDC_SRC_COMMON_BITS_H_

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <string>

namespace sdc {

// Operand datatypes, matching Figure 3's x-axis.
enum class DataType {
  kInt16,
  kInt32,
  kUInt32,
  kFloat32,
  kFloat64,
  kFloat80,  // "float64x" in the paper: x87 extended double
  kBit,
  kByte,
  kBin16,
  kBin32,
  kBin64,
};

// Number of value bits in the representation of `type` (80 for kFloat80).
int BitWidth(DataType type);

// True for IEEE-style floating-point types (f32/f64/f80).
bool IsFloatingPoint(DataType type);

// True for types whose bit positions carry numeric significance (ints + floats). The paper
// calls the rest "non-numerical" (bit/byte/bin*), for which bitflips are position-uniform.
bool IsNumeric(DataType type);

// Short display name matching the paper's figures ("i32", "f64", "bin32", ...).
std::string DataTypeName(DataType type);

// 128-bit little-endian bit container. Bit 0 is the least significant bit of `lo`.
struct Word128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Word128&, const Word128&) = default;

  Word128 operator^(const Word128& other) const { return {lo ^ other.lo, hi ^ other.hi}; }
  Word128 operator&(const Word128& other) const { return {lo & other.lo, hi & other.hi}; }
  Word128 operator|(const Word128& other) const { return {lo | other.lo, hi | other.hi}; }

  bool GetBit(int index) const {
    return ((index < 64 ? lo >> index : hi >> (index - 64)) & 1u) != 0;
  }
  void SetBit(int index, bool value) {
    uint64_t& word = index < 64 ? lo : hi;
    const uint64_t bit = uint64_t{1} << (index < 64 ? index : index - 64);
    word = value ? (word | bit) : (word & ~bit);
  }
  void FlipBit(int index) {
    uint64_t& word = index < 64 ? lo : hi;
    word ^= uint64_t{1} << (index < 64 ? index : index - 64);
  }
  int Popcount() const;
  bool IsZero() const { return lo == 0 && hi == 0; }
};

// Hash suitable for using masks as map keys.
struct Word128Hash {
  size_t operator()(const Word128& w) const;
};

// --- Conversions between native values and Word128 bit images. ---

inline Word128 BitsOfInt16(int16_t value) { return {static_cast<uint16_t>(value), 0}; }
inline Word128 BitsOfInt32(int32_t value) { return {static_cast<uint32_t>(value), 0}; }
inline Word128 BitsOfUInt32(uint32_t value) { return {value, 0}; }
inline Word128 BitsOfFloat(float value) { return {std::bit_cast<uint32_t>(value), 0}; }
inline Word128 BitsOfDouble(double value) { return {std::bit_cast<uint64_t>(value), 0}; }

// The portable x87 encoders, built on frexp/ldexp: BitsOfFloat80 and Float80FromBits below
// fall back to them for every value whose image the host's own layout cannot give.
Word128 BitsOfFloat80Portable(long double value);
long double Float80FromBitsPortable(const Word128& bits);

// True when `long double` is the x87 extended format, stored little-endian in its first
// 10 bytes, so a canonical image and the in-memory value are the same bytes.
inline constexpr bool kX87LongDouble = LDBL_MANT_DIG == 64 && LDBL_MAX_EXP == 16384 &&
                                       sizeof(long double) >= 10 &&
                                       std::endian::native == std::endian::little;

// Encodes into the 80-bit x87 extended format (normal and zero values; infinities and NaNs
// are encoded as the maximum-exponent patterns, denormals as signed zero). On an x87 host
// normal, zero and infinite values copy their own bytes, which are that encoding.
inline Word128 BitsOfFloat80(long double value) {
  if constexpr (kX87LongDouble) {
    Word128 out;
    uint16_t top = 0;
    std::memcpy(&out.lo, &value, 8);
    std::memcpy(&top, reinterpret_cast<const unsigned char*>(&value) + 8, 2);
    out.hi = top;
    const unsigned exponent = top & 0x7fffu;
    const bool integer_bit = (out.lo >> 63) != 0;
    if ((exponent != 0 && exponent != 0x7fffu && integer_bit) ||
        (exponent == 0 && out.lo == 0) ||
        (exponent == 0x7fffu && out.lo == 0x8000000000000000ull)) {
      return out;
    }
  }
  return BitsOfFloat80Portable(value);
}
inline Word128 BitsOfRaw(uint64_t value, int width_bits) {
  const uint64_t mask = width_bits >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width_bits) - 1);
  return {value & mask, 0};
}

inline int16_t Int16FromBits(const Word128& bits) {
  return static_cast<int16_t>(bits.lo & 0xffffu);
}
inline int32_t Int32FromBits(const Word128& bits) {
  return static_cast<int32_t>(static_cast<uint32_t>(bits.lo));
}
inline uint32_t UInt32FromBits(const Word128& bits) { return static_cast<uint32_t>(bits.lo); }
inline float FloatFromBits(const Word128& bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(bits.lo));
}
inline double DoubleFromBits(const Word128& bits) { return std::bit_cast<double>(bits.lo); }
// Decodes an 80-bit image (bits above the low 80 are ignored). On an x87 host a normal
// image (biased exponent in [1, 0x7ffe], integer bit set) is copied as is; zeros,
// infinities, NaNs, denormals and unnormals are decoded portably.
inline long double Float80FromBits(const Word128& bits) {
  if constexpr (kX87LongDouble) {
    const unsigned exponent = static_cast<unsigned>(bits.hi) & 0x7fffu;
    if (exponent != 0 && exponent != 0x7fffu && (bits.lo >> 63) != 0) {
      long double value = 0.0L;
      const auto top = static_cast<uint16_t>(bits.hi);
      std::memcpy(&value, &bits.lo, 8);
      std::memcpy(reinterpret_cast<unsigned char*>(&value) + 8, &top, 2);
      return value;
    }
  }
  return Float80FromBitsPortable(bits);
}
inline uint64_t RawFromBits(const Word128& bits) { return bits.lo; }

// Index of the first fraction (mantissa) bit and the number of fraction bits for a floating
// type, in Word128 bit coordinates. For kFloat80 the explicit integer bit (bit 63) is NOT
// counted as fraction.
int FractionBits(DataType type);
int ExponentBits(DataType type);

// Relative precision loss |actual - expected| / |expected| evaluated in long double; returns
// +inf when expected == 0 and actual != 0, and 0 when both are equal. Only meaningful for
// numeric types.
double RelativePrecisionLoss(DataType type, const Word128& expected, const Word128& actual);

}  // namespace sdc

#endif  // SDC_SRC_COMMON_BITS_H_
