// Instruction-loop testcases: tight loops over a single scalar or vector operation.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <string>

#include "src/toolchain/cases.h"

namespace sdc {
namespace {

// Golden scalar results for integer/logic ops. Inputs are derived from the rng; divide
// guards against zero divisors. Add, subtract, multiply and shift wrap modulo 2^64 like
// the hardware they model: they run in uint64_t, where overflow is defined (raw 64-bit
// payloads overflow int64_t routinely).
int64_t GoldenInt(OpKind op, int64_t a, int64_t b) {
  const auto ua = static_cast<uint64_t>(a);
  const auto ub = static_cast<uint64_t>(b);
  switch (op) {
    case OpKind::kIntAdd:
      return static_cast<int64_t>(ua + ub);
    case OpKind::kIntSub:
      return static_cast<int64_t>(ua - ub);
    case OpKind::kIntMul:
      return static_cast<int64_t>(ua * ub);
    case OpKind::kIntDiv:
      return a / (b | 1);
    case OpKind::kIntShift:
      return static_cast<int64_t>(ua << (ub & 15));
    case OpKind::kLogicAnd:
      return a & b;
    case OpKind::kLogicOr:
      return a | b;
    case OpKind::kLogicXor:
      return a ^ b;
    case OpKind::kPopcount:
      return std::popcount(static_cast<uint64_t>(a));
    case OpKind::kCompare:
      return a < b ? -1 : (a > b ? 1 : 0);
    case OpKind::kHashStep:
      return static_cast<int64_t>((static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b)) *
                                  0x100000001b3ull);
    case OpKind::kCrc32Step:
      return static_cast<int64_t>(
          (static_cast<uint64_t>(a) >> 8) ^ ((static_cast<uint64_t>(a ^ b) & 0xff) * 0x1db7));
    default:
      return static_cast<int64_t>(ua + ub);
  }
}

long double GoldenFloat(OpKind op, long double a, long double b) {
  switch (op) {
    case OpKind::kFpAdd:
    case OpKind::kVecAddF32:
    case OpKind::kVecAddF64:
      return a + b;
    case OpKind::kFpSub:
      return a - b;
    case OpKind::kFpMul:
    case OpKind::kVecMulF32:
    case OpKind::kVecMulF64:
      return a * b;
    case OpKind::kFpDiv:
      return a / (b == 0.0L ? 1.0L : b);
    case OpKind::kFpSqrt:
      return std::sqrt(std::fabs(a));
    case OpKind::kFpFma:
    case OpKind::kVecFmaF32:
    case OpKind::kVecFmaF64:
      return a * b + (a - b);
    case OpKind::kFpArctan:
      return std::atan(a);
    case OpKind::kFpSin:
      return std::sin(a);
    case OpKind::kFpLog:
      return std::log(std::fabs(a) + 1.0L);
    case OpKind::kFpExp:
      return std::exp(a / 64.0L);
    default:
      return a + b;
  }
}

// Instruction loops hand the processor this many ops per ExecuteBatch call.
constexpr int kChunk = 256;

// Runs `count` ops of `op` on `type` through the processor a chunk at a time: `fill` writes
// a chunk's golden images (drawing `draws_per_element` inputs per element from context.rng,
// in element order), the chunk goes through Processor::ExecuteBatch, and mismatches are
// recorded in element order. When no defect of the machine can corrupt `op`, every result
// would stay golden: the loop only skips the input draws it would have made and counts the
// ops. Inside a plan that path runs only in the first batch of a clean entry, whose rng
// dies with the entry (TestFramework::RunEntry replays the later batches). The skip is
// still required wherever later draws read the same rng: the session workload kernel,
// whose protection session draws its workload phases after each batch, and any
// corruptible entry whose kernel also runs clean ops.
template <typename Fill>
void RunInChunks(TestContext& context, const std::string& testcase_id, OpKind op,
                 DataType type, int count, int draws_per_element, Fill fill) {
  Processor& cpu = context.cpu();
  const int lcore = context.lcores.front();
  if (!cpu.MayCorrupt(op)) {
    context.rng->Skip(static_cast<uint64_t>(draws_per_element) * static_cast<uint64_t>(count));
    cpu.CountCleanOps(lcore, op, static_cast<uint64_t>(count));
    return;
  }
  std::array<Word128, kChunk> golden;
  std::array<Word128, kChunk> routed;
  for (int done = 0; done < count; done += kChunk) {
    const auto size = static_cast<size_t>(std::min(kChunk, count - done));
    const std::span<Word128> expected(golden.data(), size);
    const std::span<Word128> actual(routed.data(), size);
    fill(expected);
    std::copy(expected.begin(), expected.end(), actual.begin());
    cpu.ExecuteBatch(lcore, op, type, actual);
    RecordLoopMismatches(context, testcase_id, lcore, type, expected, actual);
  }
}

class ScalarSweepCase : public TestcaseBase {
 public:
  ScalarSweepCase(TestcaseInfo info, OpKind op, DataType type, int elements)
      : TestcaseBase(std::move(info)), op_(op), type_(type), elements_(elements) {}

  void RunBatch(TestContext& context) override {
    Rng& rng = *context.rng;
    const auto run = [&](int draws_per_element, auto fill) {
      RunInChunks(context, info_.id, op_, type_, elements_, draws_per_element, fill);
    };
    switch (type_) {
      case DataType::kInt16:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<int16_t>(rng.NextInRange(-20000, 20000));
            const auto b = static_cast<int16_t>(rng.NextInRange(-20000, 20000));
            bits = BitsOfInt16(static_cast<int16_t>(GoldenInt(op_, a, b)));
          }
        });
      case DataType::kInt32:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<int32_t>(rng.NextInRange(-1000000, 1000000));
            const auto b = static_cast<int32_t>(rng.NextInRange(-1000000, 1000000));
            bits = BitsOfInt32(static_cast<int32_t>(GoldenInt(op_, a, b)));
          }
        });
      case DataType::kUInt32:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<uint32_t>(rng.Next());
            const auto b = static_cast<uint32_t>(rng.Next());
            bits = BitsOfUInt32(static_cast<uint32_t>(
                GoldenInt(op_, static_cast<int64_t>(a), static_cast<int64_t>(b))));
          }
        });
      case DataType::kFloat32:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<float>(rng.NextDouble() * 200.0 - 100.0);
            const auto b = static_cast<float>(rng.NextDouble() * 200.0 - 100.0);
            bits = BitsOfFloat(static_cast<float>(GoldenFloat(op_, a, b)));
          }
        });
      case DataType::kFloat64:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const double a = rng.NextDouble() * 200.0 - 100.0;
            const double b = rng.NextDouble() * 200.0 - 100.0;
            bits = BitsOfDouble(static_cast<double>(GoldenFloat(op_, a, b)));
          }
        });
      case DataType::kFloat80:
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const long double a = rng.NextDouble() * 200.0L - 100.0L;
            const long double b = rng.NextDouble() * 200.0L - 100.0L;
            bits = BitsOfFloat80(GoldenFloat(op_, a, b));
          }
        });
      default: {  // bit/byte/bin16/bin32/bin64 raw payloads
        const int width = BitWidth(type_);
        const uint64_t mask = width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
        return run(2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const uint64_t a = rng.Next() & mask;
            const uint64_t b = rng.Next() & mask;
            bits = BitsOfRaw(static_cast<uint64_t>(GoldenInt(op_, static_cast<int64_t>(a),
                                                             static_cast<int64_t>(b))),
                             width);
          }
        });
      }
    }
  }

 private:
  OpKind op_;
  DataType type_;
  int elements_;
};

class VectorSweepCase : public TestcaseBase {
 public:
  VectorSweepCase(TestcaseInfo info, OpKind op, DataType type, int lanes, int vectors)
      : TestcaseBase(std::move(info)), op_(op), type_(type), lanes_(lanes),
        vectors_(vectors) {}

  // Every lane of every vector is one op; lanes run in (vector, lane) order.
  void RunBatch(TestContext& context) override {
    Rng& rng = *context.rng;
    const int count = vectors_ * lanes_;
    const auto run = [&](DataType type, int draws_per_element, auto fill) {
      RunInChunks(context, info_.id, op_, type, count, draws_per_element, fill);
    };
    switch (type_) {
      case DataType::kFloat32:
        return run(type_, 2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<float>(rng.NextDouble() * 16.0 - 8.0);
            const auto b = static_cast<float>(rng.NextDouble() * 16.0 - 8.0);
            bits = BitsOfFloat(static_cast<float>(GoldenFloat(op_, a, b)));
          }
        });
      case DataType::kFloat64:
        return run(type_, 2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const double a = rng.NextDouble() * 16.0 - 8.0;
            const double b = rng.NextDouble() * 16.0 - 8.0;
            bits = BitsOfDouble(static_cast<double>(GoldenFloat(op_, a, b)));
          }
        });
      case DataType::kInt32:
        return run(type_, 2, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const auto a = static_cast<int32_t>(rng.NextInRange(-30000, 30000));
            const auto b = static_cast<int32_t>(rng.NextInRange(-30000, 30000));
            bits = BitsOfInt32(op_ == OpKind::kVecMulI32 ? a * b : a + b);
          }
        });
      default:  // shuffle-style raw lanes (bin32)
        return run(DataType::kBin32, 1, [&](std::span<Word128> golden) {
          for (Word128& bits : golden) {
            const uint64_t a = rng.Next() & 0xffffffffull;
            bits = BitsOfRaw(((a << 16) | (a >> 16)) & 0xffffffffull, 32);
          }
        });
    }
  }

 private:
  OpKind op_;
  DataType type_;
  int lanes_;
  int vectors_;
};

}  // namespace

void RecordLoopMismatches(TestContext& context, const std::string& testcase_id, int lcore,
                          DataType type, std::span<const Word128> golden,
                          std::span<const Word128> routed) {
  const auto record_if_differs = [&](auto decode, auto encode) {
    for (size_t i = 0; i < golden.size(); ++i) {
      const auto expected = decode(golden[i]);
      const auto actual = decode(routed[i]);
      if (actual != expected) {
        context.RecordComputation(testcase_id, lcore, type, encode(expected), encode(actual));
      }
    }
  };
  switch (type) {
    case DataType::kInt16:
      return record_if_differs([](const Word128& bits) { return Int16FromBits(bits); },
                               [](int16_t value) { return BitsOfInt16(value); });
    case DataType::kInt32:
      return record_if_differs([](const Word128& bits) { return Int32FromBits(bits); },
                               [](int32_t value) { return BitsOfInt32(value); });
    case DataType::kUInt32:
      return record_if_differs([](const Word128& bits) { return UInt32FromBits(bits); },
                               [](uint32_t value) { return BitsOfUInt32(value); });
    case DataType::kFloat32:
      return record_if_differs([](const Word128& bits) { return FloatFromBits(bits); },
                               [](float value) { return BitsOfFloat(value); });
    case DataType::kFloat64:
      return record_if_differs([](const Word128& bits) { return DoubleFromBits(bits); },
                               [](double value) { return BitsOfDouble(value); });
    case DataType::kFloat80:
      for (size_t i = 0; i < golden.size(); ++i) {
        // Golden images are BitsOfFloat80 outputs, which the x87 round trip maps to
        // themselves, so only a corrupted element pays for the conversions.
        if (routed[i] == golden[i]) {
          continue;
        }
        const Word128 actual = BitsOfFloat80(Float80FromBits(routed[i]));
        if (actual != golden[i]) {
          context.RecordComputation(testcase_id, lcore, type, golden[i], actual);
        }
      }
      return;
    default: {  // bit/byte/bin16/bin32/bin64 raw payloads
      const int width = BitWidth(type);
      return record_if_differs([](const Word128& bits) { return RawFromBits(bits); },
                               [width](uint64_t value) { return BitsOfRaw(value, width); });
    }
  }
}

std::unique_ptr<Testcase> MakeScalarSweepCase(OpKind op, DataType type, int elements) {
  TestcaseInfo info;
  info.id = "loop." + OpKindName(op) + "." + DataTypeName(type) + ".n" +
            std::to_string(elements);
  info.target = FeatureOf(op);
  info.style = TestcaseStyle::kInstructionLoop;
  info.ops = {op};
  info.types = {type};
  return std::make_unique<ScalarSweepCase>(std::move(info), op, type, elements);
}

std::unique_ptr<Testcase> MakeVectorSweepCase(OpKind op, DataType type, int lanes,
                                              int vectors) {
  TestcaseInfo info;
  info.id = "vec." + OpKindName(op) + "." + DataTypeName(type) + ".l" +
            std::to_string(lanes) + ".n" + std::to_string(vectors);
  info.target = Feature::kVecUnit;
  info.style = TestcaseStyle::kInstructionLoop;
  info.ops = {op};
  info.types = {type};
  return std::make_unique<VectorSweepCase>(std::move(info), op, type, lanes, vectors);
}

}  // namespace sdc
