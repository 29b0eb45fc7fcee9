#include "src/common/bits.h"

#include <bit>
#include <cmath>
#include <limits>

namespace sdc {
namespace {

constexpr int kF80ExponentBias = 16383;
constexpr int kF80FractionBits = 63;  // explicit integer bit sits above these

}  // namespace

int BitWidth(DataType type) {
  switch (type) {
    case DataType::kInt16:
      return 16;
    case DataType::kInt32:
      return 32;
    case DataType::kUInt32:
      return 32;
    case DataType::kFloat32:
      return 32;
    case DataType::kFloat64:
      return 64;
    case DataType::kFloat80:
      return 80;
    case DataType::kBit:
      return 1;
    case DataType::kByte:
      return 8;
    case DataType::kBin16:
      return 16;
    case DataType::kBin32:
      return 32;
    case DataType::kBin64:
      return 64;
  }
  return 0;
}

bool IsFloatingPoint(DataType type) {
  return type == DataType::kFloat32 || type == DataType::kFloat64 || type == DataType::kFloat80;
}

bool IsNumeric(DataType type) {
  switch (type) {
    case DataType::kInt16:
    case DataType::kInt32:
    case DataType::kUInt32:
    case DataType::kFloat32:
    case DataType::kFloat64:
    case DataType::kFloat80:
      return true;
    default:
      return false;
  }
}

std::string DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt16:
      return "i16";
    case DataType::kInt32:
      return "i32";
    case DataType::kUInt32:
      return "ui32";
    case DataType::kFloat32:
      return "f32";
    case DataType::kFloat64:
      return "f64";
    case DataType::kFloat80:
      return "f64x";
    case DataType::kBit:
      return "bit";
    case DataType::kByte:
      return "byte";
    case DataType::kBin16:
      return "bin16";
    case DataType::kBin32:
      return "bin32";
    case DataType::kBin64:
      return "bin64";
  }
  return "?";
}

int Word128::Popcount() const { return std::popcount(lo) + std::popcount(hi); }

size_t Word128Hash::operator()(const Word128& w) const {
  uint64_t x = w.lo * 0x9e3779b97f4a7c15ull ^ (w.hi + 0xbf58476d1ce4e5b9ull);
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 29;
  return static_cast<size_t>(x);
}

Word128 BitsOfFloat80Portable(long double value) {
  Word128 out;
  const bool negative = std::signbit(value);
  long double magnitude = negative ? -value : value;
  uint16_t high16 = negative ? 0x8000u : 0u;
  if (magnitude == 0.0L) {
    out.hi = high16;
    return out;
  }
  if (std::isinf(magnitude) || std::isnan(magnitude)) {
    high16 = static_cast<uint16_t>(high16 | 0x7fffu);
    out.hi = high16;
    out.lo = std::isnan(magnitude) ? 0xc000000000000000ull : 0x8000000000000000ull;
    return out;
  }
  int exponent = 0;
  // frexpl: magnitude = m * 2^exponent with m in [0.5, 1). x87 wants mantissa in [1, 2).
  long double mantissa = std::frexp(magnitude, &exponent);
  mantissa *= 2.0L;
  exponent -= 1;
  int biased = exponent + kF80ExponentBias;
  if (biased <= 0) {
    // Denormal range: encode as signed zero (the simulation never generates these).
    out.hi = high16;
    return out;
  }
  if (biased >= 0x7fff) {
    out.hi = static_cast<uint64_t>(high16 | 0x7fffu);
    out.lo = 0x8000000000000000ull;
    return out;
  }
  // mantissa in [1, 2); scale to [2^63, 2^64). Exact when long double carries >= 64 mantissa
  // bits (x87); on other platforms this truncates, which only loses sub-representable detail.
  const long double scaled = std::floor(mantissa * 0x1.0p63L);
  out.lo = static_cast<uint64_t>(scaled);
  out.hi = static_cast<uint64_t>(high16 | static_cast<uint16_t>(biased));
  return out;
}

long double Float80FromBitsPortable(const Word128& bits) {
  const uint16_t high16 = static_cast<uint16_t>(bits.hi & 0xffffu);
  const bool negative = (high16 & 0x8000u) != 0;
  const int biased = high16 & 0x7fffu;
  const uint64_t mantissa = bits.lo;
  long double magnitude = 0.0L;
  if (biased == 0x7fff) {
    magnitude = (mantissa << 1) == 0 ? std::numeric_limits<long double>::infinity()
                                     : std::numeric_limits<long double>::quiet_NaN();
  } else if (biased == 0 && mantissa == 0) {
    magnitude = 0.0L;
  } else {
    magnitude = std::ldexp(static_cast<long double>(mantissa),
                           biased - kF80ExponentBias - kF80FractionBits);
  }
  return negative ? -magnitude : magnitude;
}

int FractionBits(DataType type) {
  switch (type) {
    case DataType::kFloat32:
      return 23;
    case DataType::kFloat64:
      return 52;
    case DataType::kFloat80:
      return kF80FractionBits;
    default:
      return 0;
  }
}

int ExponentBits(DataType type) {
  switch (type) {
    case DataType::kFloat32:
      return 8;
    case DataType::kFloat64:
      return 11;
    case DataType::kFloat80:
      return 15;
    default:
      return 0;
  }
}

double RelativePrecisionLoss(DataType type, const Word128& expected, const Word128& actual) {
  long double expected_value = 0.0L;
  long double actual_value = 0.0L;
  switch (type) {
    case DataType::kInt16:
      expected_value = Int16FromBits(expected);
      actual_value = Int16FromBits(actual);
      break;
    case DataType::kInt32:
      expected_value = Int32FromBits(expected);
      actual_value = Int32FromBits(actual);
      break;
    case DataType::kUInt32:
      expected_value = UInt32FromBits(expected);
      actual_value = UInt32FromBits(actual);
      break;
    case DataType::kFloat32:
      expected_value = FloatFromBits(expected);
      actual_value = FloatFromBits(actual);
      break;
    case DataType::kFloat64:
      expected_value = DoubleFromBits(expected);
      actual_value = DoubleFromBits(actual);
      break;
    case DataType::kFloat80:
      expected_value = Float80FromBits(expected);
      actual_value = Float80FromBits(actual);
      break;
    default:
      return 0.0;
  }
  if (expected_value == actual_value) {
    return 0.0;
  }
  if (expected_value == 0.0L) {
    return std::numeric_limits<double>::infinity();
  }
  const long double loss = std::fabs((actual_value - expected_value) / expected_value);
  return static_cast<double>(loss);
}

}  // namespace sdc
