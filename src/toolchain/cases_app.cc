// Application-logic testcases: matrix pipelines, a storage-server write path, a hash-map
// metadata service, and numerical integration.

#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/integrity/crc32.h"
#include "src/integrity/hash.h"
#include "src/toolchain/cases.h"

namespace sdc {
namespace {

class MatrixMultiplyCase : public TestcaseBase {
 public:
  MatrixMultiplyCase(TestcaseInfo info, DataType type, int dimension, int lanes)
      : TestcaseBase(std::move(info)), type_(type), dimension_(dimension), lanes_(lanes) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    const int n = dimension_;
    std::vector<double> a(static_cast<size_t>(n) * n);
    std::vector<double> b(static_cast<size_t>(n) * n);
    for (auto& value : a) {
      value = context.rng->NextDouble() * 2.0 - 1.0;
    }
    for (auto& value : b) {
      value = context.rng->NextDouble() * 2.0 - 1.0;
    }
    const OpKind op = type_ == DataType::kFloat32   ? OpKind::kVecFmaF32
                      : type_ == DataType::kFloat64 ? OpKind::kVecFmaF64
                                                    : OpKind::kIntMul;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (type_ == DataType::kInt32) {
          int32_t golden = 0;
          int32_t routed = 0;
          for (int k = 0; k < n; ++k) {
            const auto ai = static_cast<int32_t>(a[i * n + k] * 100.0);
            const auto bk = static_cast<int32_t>(b[k * n + j] * 100.0);
            golden += ai * bk;
            // A corrupted accumulator can sit anywhere in int32 range, so the routed sum
            // wraps in uint32_t: the same two's-complement bits, without signed overflow.
            routed = cpu.ExecuteI32(
                lcore, op,
                static_cast<int32_t>(static_cast<uint32_t>(routed) +
                                     static_cast<uint32_t>(ai * bk)));
          }
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfInt32(golden),
                                      BitsOfInt32(routed));
          }
        } else if (type_ == DataType::kFloat32) {
          float golden = 0.0f;
          float routed = 0.0f;
          for (int k = 0; k < n; ++k) {
            const auto ai = static_cast<float>(a[i * n + k]);
            const auto bk = static_cast<float>(b[k * n + j]);
            golden += ai * bk;
            // Route once per `lanes_` accumulations, mirroring vector-width granularity.
            routed += ai * bk;
            if ((k + 1) % lanes_ == 0 || k + 1 == n) {
              routed = cpu.ExecuteF32(lcore, op, routed);
            }
          }
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfFloat(golden),
                                      BitsOfFloat(routed));
          }
        } else {
          double golden = 0.0;
          double routed = 0.0;
          for (int k = 0; k < n; ++k) {
            golden += a[i * n + k] * b[k * n + j];
            routed += a[i * n + k] * b[k * n + j];
            if ((k + 1) % lanes_ == 0 || k + 1 == n) {
              routed = cpu.ExecuteF64(lcore, op, routed);
            }
          }
          if (routed != golden) {
            context.RecordComputation(info_.id, lcore, type_, BitsOfDouble(golden),
                                      BitsOfDouble(routed));
          }
        }
      }
    }
  }

 private:
  DataType type_;
  int dimension_;
  int lanes_;
};

class StorageServerCase : public TestcaseBase {
 public:
  StorageServerCase(TestcaseInfo info, int block_bytes, bool vectorized_crc)
      : TestcaseBase(std::move(info)), block_bytes_(block_bytes),
        vectorized_crc_(vectorized_crc) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    // Write path: fill a block, compute its checksum on the processor, "store" both, then
    // verify the stored pair host-side as a reader would (the Section 2.2 incident: a faulty
    // checksum unit makes the service believe good data is corrupt). The block is
    // batch-local: shared testcase objects must stay stateless so parallel plan entries
    // can drive the same case on several machine clones at once.
    std::vector<uint8_t> block(static_cast<size_t>(block_bytes_));
    for (auto& byte : block) {
      byte = static_cast<uint8_t>(context.rng->Next());
    }
    const uint32_t stored_crc = vectorized_crc_
                                    ? Crc32VectorOnProcessor(cpu, lcore, block)
                                    : Crc32OnProcessor(cpu, lcore, block);
    const uint32_t reader_crc = Crc32(block);
    if (stored_crc != reader_crc) {
      context.RecordComputation(info_.id, lcore, DataType::kUInt32,
                                BitsOfUInt32(reader_crc), BitsOfUInt32(stored_crc));
    }
  }

 private:
  int block_bytes_;
  bool vectorized_crc_;
};

class HashMapCase : public TestcaseBase {
 public:
  HashMapCase(TestcaseInfo info, int operations)
      : TestcaseBase(std::move(info)), operations_(operations) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    // Metadata service: keys hashed on the processor at insert and at lookup. A defective
    // hashing path makes the lookup hash disagree with the stored one -- the "assertion
    // failure" incident of Section 2.2.
    std::unordered_map<uint64_t, uint64_t> metadata;
    std::vector<std::array<uint8_t, 16>> keys(static_cast<size_t>(operations_));
    for (int i = 0; i < operations_; ++i) {
      for (auto& byte : keys[i]) {
        byte = static_cast<uint8_t>(context.rng->Next());
      }
      const uint64_t hash = Fnv1a64OnProcessor(cpu, lcore, keys[i]);
      metadata[hash] = static_cast<uint64_t>(i);
    }
    for (int i = 0; i < operations_; ++i) {
      const uint64_t expected_hash = Fnv1a64(keys[i]);
      const uint64_t lookup_hash = Fnv1a64OnProcessor(cpu, lcore, keys[i]);
      if (lookup_hash != expected_hash || !metadata.contains(expected_hash)) {
        context.RecordComputation(info_.id, lcore, DataType::kBin64,
                                  BitsOfRaw(expected_hash, 64),
                                  BitsOfRaw(lookup_hash, 64));
      }
    }
  }

 private:
  int operations_;
};

class IntegrationCase : public TestcaseBase {
 public:
  IntegrationCase(TestcaseInfo info, int intervals)
      : TestcaseBase(std::move(info)), intervals_(intervals) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    const double lo = context.rng->NextDouble() * 2.0;
    const double hi = lo + 1.0 + context.rng->NextDouble();
    const double step = (hi - lo) / intervals_;
    double golden = 0.0;
    double routed = 0.0;
    for (int i = 0; i <= intervals_; ++i) {
      const double x = lo + i * step;
      const double fx = std::sin(x);
      const double weight = (i == 0 || i == intervals_) ? 0.5 : 1.0;
      golden += weight * fx;
      const double fx_routed = cpu.ExecuteF64(lcore, OpKind::kFpSin, fx);
      routed = cpu.ExecuteF64(lcore, OpKind::kFpAdd, routed + weight * fx_routed);
    }
    golden *= step;
    routed *= step;
    if (routed != golden) {
      context.RecordComputation(info_.id, lcore, DataType::kFloat64, BitsOfDouble(golden),
                                BitsOfDouble(routed));
    }
  }

 private:
  int intervals_;
};

}  // namespace

std::unique_ptr<Testcase> MakeMatrixMultiplyCase(DataType type, int dimension, int lanes) {
  TestcaseInfo info;
  info.id = "app.matmul." + DataTypeName(type) + ".n" + std::to_string(dimension) + ".l" +
            std::to_string(lanes);
  info.target = type == DataType::kInt32 ? Feature::kAlu : Feature::kVecUnit;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {type == DataType::kFloat32   ? OpKind::kVecFmaF32
              : type == DataType::kFloat64 ? OpKind::kVecFmaF64
                                           : OpKind::kIntMul};
  info.types = {type};
  return std::make_unique<MatrixMultiplyCase>(std::move(info), type, dimension, lanes);
}

std::unique_ptr<Testcase> MakeStorageServerCase(int block_bytes, bool vectorized_crc) {
  TestcaseInfo info;
  info.id = std::string("app.storage.") + (vectorized_crc ? "veccrc" : "crc") + ".b" +
            std::to_string(block_bytes);
  info.target = vectorized_crc ? Feature::kVecUnit : Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = vectorized_crc ? std::vector<OpKind>{OpKind::kVecCrc, OpKind::kCrc32Step}
                            : std::vector<OpKind>{OpKind::kCrc32Step};
  info.types = {DataType::kUInt32};
  return std::make_unique<StorageServerCase>(std::move(info), block_bytes, vectorized_crc);
}

std::unique_ptr<Testcase> MakeHashMapCase(int operations) {
  TestcaseInfo info;
  info.id = "app.hashmap.n" + std::to_string(operations);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kHashStep};
  info.types = {DataType::kBin64};
  return std::make_unique<HashMapCase>(std::move(info), operations);
}

std::unique_ptr<Testcase> MakeIntegrationCase(int intervals) {
  TestcaseInfo info;
  info.id = "app.integrate.sin.n" + std::to_string(intervals);
  info.target = Feature::kFpu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kFpSin, OpKind::kFpAdd};
  info.types = {DataType::kFloat64};
  return std::make_unique<IntegrationCase>(std::move(info), intervals);
}

}  // namespace sdc
