// Instruction-loop testcases: tight loops over a single scalar or vector operation.

#include <bit>
#include <cmath>
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

class ScalarSweepCase : public TestcaseBase {
 public:
  ScalarSweepCase(TestcaseInfo info, OpKind op, DataType type, int elements)
      : TestcaseBase(std::move(info)), op_(op), type_(type), elements_(elements) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    for (int i = 0; i < elements_; ++i) {
      switch (type_) {
        case DataType::kInt16: {
          const auto a = static_cast<int16_t>(context.rng->NextInRange(-20000, 20000));
          const auto b = static_cast<int16_t>(context.rng->NextInRange(-20000, 20000));
          const auto golden = static_cast<int16_t>(GoldenInt(op_, a, b));
          const int16_t routed = cpu.ExecuteI16(lcore, op_, golden);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfInt16(golden),
                                      BitsOfInt16(routed));
          }
          break;
        }
        case DataType::kInt32: {
          const auto a = static_cast<int32_t>(context.rng->NextInRange(-1000000, 1000000));
          const auto b = static_cast<int32_t>(context.rng->NextInRange(-1000000, 1000000));
          const auto golden = static_cast<int32_t>(GoldenInt(op_, a, b));
          const int32_t routed = cpu.ExecuteI32(lcore, op_, golden);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfInt32(golden),
                                      BitsOfInt32(routed));
          }
          break;
        }
        case DataType::kUInt32: {
          const auto a = static_cast<uint32_t>(context.rng->Next());
          const auto b = static_cast<uint32_t>(context.rng->Next());
          const auto golden = static_cast<uint32_t>(
              GoldenInt(op_, static_cast<int64_t>(a), static_cast<int64_t>(b)));
          const uint32_t routed = cpu.ExecuteU32(lcore, op_, golden);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfUInt32(golden),
                                      BitsOfUInt32(routed));
          }
          break;
        }
        case DataType::kFloat32: {
          const auto a = static_cast<float>(context.rng->NextDouble() * 200.0 - 100.0);
          const auto b = static_cast<float>(context.rng->NextDouble() * 200.0 - 100.0);
          const float golden = static_cast<float>(GoldenFloat(op_, a, b));
          const float routed = cpu.ExecuteF32(lcore, op_, golden);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfFloat(golden),
                                      BitsOfFloat(routed));
          }
          break;
        }
        case DataType::kFloat64: {
          const double a = context.rng->NextDouble() * 200.0 - 100.0;
          const double b = context.rng->NextDouble() * 200.0 - 100.0;
          const double golden = static_cast<double>(GoldenFloat(op_, a, b));
          const double routed = cpu.ExecuteF64(lcore, op_, golden);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfDouble(golden),
                                      BitsOfDouble(routed));
          }
          break;
        }
        case DataType::kFloat80: {
          const long double a = context.rng->NextDouble() * 200.0L - 100.0L;
          const long double b = context.rng->NextDouble() * 200.0L - 100.0L;
          const long double golden = GoldenFloat(op_, a, b);
          const long double routed = cpu.ExecuteF80(lcore, op_, golden);
          if (BitsOfFloat80(routed) != BitsOfFloat80(golden)) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfFloat80(golden),
                                      BitsOfFloat80(routed));
          }
          break;
        }
        default: {  // bit/byte/bin16/bin32/bin64 raw payloads
          const int width = BitWidth(type_);
          const uint64_t mask =
              width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
          const uint64_t a = context.rng->Next() & mask;
          const uint64_t b = context.rng->Next() & mask;
          const uint64_t golden =
              static_cast<uint64_t>(
                  GoldenInt(op_, static_cast<int64_t>(a), static_cast<int64_t>(b))) &
              mask;
          const uint64_t routed = cpu.ExecuteRaw(lcore, op_, golden, type_);
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfRaw(golden, width),
                                      BitsOfRaw(routed, width));
          }
          break;
        }
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

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    for (int v = 0; v < vectors_; ++v) {
      for (int lane = 0; lane < lanes_; ++lane) {
        switch (type_) {
          case DataType::kFloat32: {
            const auto a = static_cast<float>(context.rng->NextDouble() * 16.0 - 8.0);
            const auto b = static_cast<float>(context.rng->NextDouble() * 16.0 - 8.0);
            const float golden = static_cast<float>(GoldenFloat(op_, a, b));
            const float routed = cpu.ExecuteF32(lcore, op_, golden);
            if (routed != golden) {
              context.RecordComputation(info_.id, lcore, type_, BitsOfFloat(golden),
                                        BitsOfFloat(routed));
            }
            break;
          }
          case DataType::kFloat64: {
            const double a = context.rng->NextDouble() * 16.0 - 8.0;
            const double b = context.rng->NextDouble() * 16.0 - 8.0;
            const double golden = static_cast<double>(GoldenFloat(op_, a, b));
            const double routed = cpu.ExecuteF64(lcore, op_, golden);
            if (routed != golden) {
              context.RecordComputation(info_.id, lcore, type_, BitsOfDouble(golden),
                                        BitsOfDouble(routed));
            }
            break;
          }
          case DataType::kInt32: {
            const auto a = static_cast<int32_t>(context.rng->NextInRange(-30000, 30000));
            const auto b = static_cast<int32_t>(context.rng->NextInRange(-30000, 30000));
            const int32_t golden =
                op_ == OpKind::kVecMulI32 ? a * b : a + b;
            const int32_t routed = cpu.ExecuteI32(lcore, op_, golden);
            if (routed != golden) {
              context.RecordComputation(info_.id, lcore, type_, BitsOfInt32(golden),
                                        BitsOfInt32(routed));
            }
            break;
          }
          default: {  // shuffle-style raw lanes (bin32)
            const uint64_t a = context.rng->Next() & 0xffffffffull;
            const uint64_t golden = ((a << 16) | (a >> 16)) & 0xffffffffull;
            const uint64_t routed = cpu.ExecuteRaw(lcore, op_, golden, DataType::kBin32);
            if (routed != golden) {
              context.RecordComputation(info_.id, lcore, DataType::kBin32,
                                        BitsOfRaw(golden, 32), BitsOfRaw(routed, 32));
            }
            break;
          }
        }
      }
    }
  }

 private:
  OpKind op_;
  DataType type_;
  int lanes_;
  int vectors_;
};

}  // namespace

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
