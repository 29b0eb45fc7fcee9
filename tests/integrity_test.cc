// Unit and property tests for src/integrity: CRC32, hashing, SECDED ECC, Reed-Solomon.
// The ECC and RS suites are parameterized sweeps over every error position / erasure combo.

#include <bit>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fault/catalog.h"
#include "src/fault/machine.h"
#include "src/integrity/adler32.h"
#include "src/integrity/crc32.h"
#include "src/integrity/ecc.h"
#include "src/integrity/erasure.h"
#include "src/integrity/hash.h"
#include "tests/oracles/oracles.h"

namespace sdc {
namespace {

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

// --- CRC32 ---

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC32 check values.
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes("")), 0x00000000u);
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, TableMatchesBitwise) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> data(static_cast<size_t>(rng.NextBelow(300)) + 1);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(Crc32(data), Crc32Bitwise(data));
  }
}

TEST(Crc32Test, DetectsSingleByteChange) {
  std::vector<uint8_t> data = Bytes("the quick brown fox");
  const uint32_t before = Crc32(data);
  data[5] ^= 0x40;
  EXPECT_NE(Crc32(data), before);
}

TEST(Crc32Test, ProcessorPathsMatchHostOnHealthyMachine) {
  FaultyMachine machine(MakeArchSpec("M2"));
  Rng rng(2);
  std::vector<uint8_t> data(1000);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  EXPECT_EQ(Crc32OnProcessor(machine.cpu(), 0, data), Crc32(data));
  EXPECT_EQ(Crc32VectorOnProcessor(machine.cpu(), 0, data), Crc32(data));
}

TEST(Crc32Test, VectorPathHandlesTails) {
  FaultyMachine machine(MakeArchSpec("M2"));
  for (size_t size : {1u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    std::vector<uint8_t> data(size, 0x5a);
    EXPECT_EQ(Crc32VectorOnProcessor(machine.cpu(), 0, data), Crc32(data)) << size;
  }
}

// --- Hashing ---

TEST(HashTest, Fnv1a64KnownValues) {
  EXPECT_EQ(Fnv1a64(Bytes("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64(Bytes("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64(Bytes("foobar")), 0x85944171f73967e8ull);
}

TEST(HashTest, MurmurMixAvalanche) {
  // Flipping one input bit should flip roughly half of the output bits.
  int total_flips = 0;
  constexpr int kTrials = 256;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t base = Mix64(trial + 1);
    const uint64_t flipped = base ^ (uint64_t{1} << (trial % 64));
    total_flips += std::popcount(MurmurMix64(base) ^ MurmurMix64(flipped));
  }
  EXPECT_NEAR(static_cast<double>(total_flips) / kTrials, 32.0, 3.0);
}

TEST(HashTest, ProcessorPathMatchesHostOnHealthyMachine) {
  FaultyMachine machine(MakeArchSpec("M3"));
  const auto data = Bytes("metadata-key-0123456789abcdef");
  EXPECT_EQ(Fnv1a64OnProcessor(machine.cpu(), 0, data), Fnv1a64(data));
}

// --- ECC (SECDED) ---

TEST(EccTest, CleanRoundTrip) {
  for (uint64_t value : {0ull, 1ull, 0xffffffffffffffffull, 0x0123456789abcdefull}) {
    const EccWord word = EccEncode(value);
    const EccDecodeResult result = EccDecode(word);
    EXPECT_EQ(result.status, EccStatus::kClean);
    EXPECT_EQ(result.data, value);
  }
}

class EccSingleBitTest : public ::testing::TestWithParam<int> {};

TEST_P(EccSingleBitTest, CorrectsAnySingleFlip) {
  const int position = GetParam();
  const uint64_t value = 0x5a5a1234deadbeefull;
  EccWord word = EccEncode(value);
  EccFlipBit(word, position);
  const EccDecodeResult result = EccDecode(word);
  EXPECT_EQ(result.status, EccStatus::kCorrected) << "bit " << position;
  EXPECT_EQ(result.data, value) << "bit " << position;
}

INSTANTIATE_TEST_SUITE_P(AllPositions, EccSingleBitTest, ::testing::Range(0, 72));

class EccDoubleBitTest : public ::testing::TestWithParam<int> {};

TEST_P(EccDoubleBitTest, DetectsDoubleFlips) {
  const int first = GetParam();
  const uint64_t value = 0x0f0f00ff12345678ull;
  for (int second = 0; second < 72; second += 7) {
    if (second == first) {
      continue;
    }
    EccWord word = EccEncode(value);
    EccFlipBit(word, first);
    EccFlipBit(word, second);
    const EccDecodeResult result = EccDecode(word);
    EXPECT_EQ(result.status, EccStatus::kDoubleDetected) << first << "," << second;
  }
}

INSTANTIATE_TEST_SUITE_P(SampledPositions, EccDoubleBitTest,
                         ::testing::Values(0, 1, 5, 13, 31, 44, 63, 64, 70, 71));

TEST(EccTest, TripleFlipsCanEscape) {
  // Observation 12 / Section 6.2: SECDED cannot handle the multi-bit errors CPU SDCs
  // produce. A 3-bit flip either miscorrects or aliases to clean.
  const uint64_t value = 0x1122334455667788ull;
  int undetected_or_wrong = 0;
  for (int a = 0; a < 24; ++a) {
    EccWord word = EccEncode(value);
    EccFlipBit(word, a);
    EccFlipBit(word, a + 20);
    EccFlipBit(word, a + 40);
    const EccDecodeResult result = EccDecode(word);
    if (result.status != EccStatus::kDoubleDetected || result.data != value) {
      ++undetected_or_wrong;
    }
  }
  EXPECT_GT(undetected_or_wrong, 0);
}

// --- Reed-Solomon ---

struct RsParam {
  int data_shards;
  int parity_shards;
};

class ReedSolomonTest : public ::testing::TestWithParam<RsParam> {};

TEST_P(ReedSolomonTest, ReconstructsFromAnyKSurvivors) {
  const RsParam param = GetParam();
  ReedSolomon rs(param.data_shards, param.parity_shards);
  Rng rng(Mix64(param.data_shards * 100 + param.parity_shards));
  constexpr size_t kShardBytes = 64;
  std::vector<std::vector<uint8_t>> data(static_cast<size_t>(param.data_shards));
  for (auto& shard : data) {
    shard.resize(kShardBytes);
    for (auto& byte : shard) {
      byte = static_cast<uint8_t>(rng.Next());
    }
  }
  const auto parity = rs.Encode(data);
  ASSERT_EQ(parity.size(), static_cast<size_t>(param.parity_shards));

  const int total = param.data_shards + param.parity_shards;
  // Erase up to m shards in a rolling window; reconstruction must always succeed.
  for (int start = 0; start < total; ++start) {
    std::vector<std::vector<uint8_t>> shards(static_cast<size_t>(total));
    std::vector<bool> present(static_cast<size_t>(total), true);
    for (int i = 0; i < param.data_shards; ++i) {
      shards[i] = data[i];
    }
    for (int i = 0; i < param.parity_shards; ++i) {
      shards[param.data_shards + i] = parity[i];
    }
    for (int e = 0; e < param.parity_shards; ++e) {
      const int victim = (start + e * 3) % total;
      present[victim] = false;
      shards[victim].clear();
    }
    const auto recovered = rs.Reconstruct(shards, present);
    ASSERT_TRUE(recovered.has_value()) << "window " << start;
    for (int i = 0; i < param.data_shards; ++i) {
      EXPECT_EQ((*recovered)[i], data[i]) << "shard " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ReedSolomonTest,
                         ::testing::Values(RsParam{2, 1}, RsParam{4, 2}, RsParam{6, 3},
                                           RsParam{8, 4}, RsParam{10, 4}));

TEST(ReedSolomonTest2, FailsWithTooFewShards) {
  ReedSolomon rs(4, 2);
  std::vector<std::vector<uint8_t>> shards(6);
  std::vector<bool> present(6, false);
  present[0] = present[1] = present[2] = true;  // only 3 of 4 needed survive
  shards[0] = shards[1] = shards[2] = std::vector<uint8_t>(8, 1);
  EXPECT_FALSE(rs.Reconstruct(shards, present).has_value());
}

TEST(ReedSolomonTest2, CorruptedShardPropagatesSilently) {
  // EC recovers erasures but cannot *detect* corruption: a silently corrupted survivor
  // reconstructs wrong data with no error (Observation 12).
  ReedSolomon rs(4, 2);
  Rng rng(9);
  std::vector<std::vector<uint8_t>> data(4, std::vector<uint8_t>(32));
  for (auto& shard : data) {
    for (auto& byte : shard) {
      byte = static_cast<uint8_t>(rng.Next());
    }
  }
  const auto parity = rs.Encode(data);
  std::vector<std::vector<uint8_t>> shards = {data[0], data[1], data[2], data[3],
                                              parity[0], parity[1]};
  std::vector<bool> present(6, true);
  present[0] = false;  // lose shard 0
  shards[0].clear();
  shards[4][3] ^= 0x10;  // silent corruption in surviving parity
  const auto recovered = rs.Reconstruct(shards, present);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_NE((*recovered)[0], data[0]);  // corruption propagated into "recovered" data
}

TEST(ReedSolomonTest2, ProcessorEncodeMatchesHostWhenHealthy) {
  FaultyMachine machine(MakeArchSpec("M2"));
  ReedSolomon rs(4, 2);
  std::vector<std::vector<uint8_t>> data(4, std::vector<uint8_t>(16, 0x7e));
  EXPECT_EQ(rs.EncodeOnProcessor(machine.cpu(), 0, data), rs.Encode(data));
}

TEST(Gf256Test, FieldAxiomsSampled) {
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = static_cast<uint8_t>(rng.Next());
    const auto b = static_cast<uint8_t>(rng.Next());
    const auto c = static_cast<uint8_t>(rng.Next());
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
    EXPECT_EQ(gf256::Mul(a, gf256::Mul(b, c)), gf256::Mul(gf256::Mul(a, b), c));
    // Distributivity over XOR (the field's addition).
    EXPECT_EQ(gf256::Mul(a, static_cast<uint8_t>(b ^ c)),
              static_cast<uint8_t>(gf256::Mul(a, b) ^ gf256::Mul(a, c)));
    if (a != 0) {
      EXPECT_EQ(gf256::Mul(a, gf256::Inv(a)), 1);
      EXPECT_EQ(gf256::Div(gf256::Mul(a, b), a), b);
    }
  }
}


// --- Adler-32 / CRC-64 ---

TEST(Adler32Test, KnownVectors) {
  // RFC 1950 check value for "Wikipedia".
  EXPECT_EQ(Adler32(Bytes("Wikipedia")), 0x11E60398u);
  EXPECT_EQ(Adler32(Bytes("")), 1u);
}

TEST(Adler32Test, DetectsByteChange) {
  std::vector<uint8_t> data = Bytes("adler32 payload example");
  const uint32_t before = Adler32(data);
  data[3] ^= 0x04;
  EXPECT_NE(Adler32(data), before);
}

TEST(Adler32Test, ProcessorPathMatchesHostWhenHealthy) {
  FaultyMachine machine(MakeArchSpec("M2"));
  Rng rng(4);
  for (size_t size : {1u, 15u, 16u, 17u, 300u}) {
    std::vector<uint8_t> data(size);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(Adler32OnProcessor(machine.cpu(), 0, data), Adler32(data)) << size;
  }
}

// Replaces every routed Adler pair with one whose halves both lie in [65521, 65535]: the
// unreduced values a defect can leave behind, which the next block must absorb.
class AdlerOverflowHook : public CorruptionHook {
 public:
  void OnExecuteBatch(const OpContext&, std::span<Word128> values) override {
    for (Word128& value : values) {
      const uint64_t a = 65521 + (value.lo & 0xffffu) % 15;
      const uint64_t b = 65521 + (value.lo >> 16) % 15;
      value.lo = (b << 16) | a;
    }
  }
  bool OnCoherenceFault(const OpContext&) override { return false; }
  bool OnTxFault(const OpContext&) override { return false; }
};

// The deferred-modulo sums against the per-byte reduced reference, golden and routed, on a
// random and an all-0xff buffer. Lengths run 0..20000: every length up to 1024 (all block
// residues, many blocks), every 7th beyond, and every length around each multiple of
// zlib's 5552-byte reduction run.
TEST(Adler32Test, DeferredModuloMatchesPerByteReference) {
  constexpr size_t kMaxLength = 20000;
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= kMaxLength; ++length) {
    const size_t from_run = length % 5552;
    if (length <= 1024 || length % 7 == 0 || from_run <= 17 || from_run >= 5552 - 17) {
      lengths.push_back(length);
    }
  }
  Rng rng(32);
  std::vector<uint8_t> random(kMaxLength);
  for (auto& byte : random) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> saturated(kMaxLength, 0xff);
  AdlerOverflowHook hook;
  FaultyMachine machine(MakeArchSpec("M2"));
  FaultyMachine reference_machine(MakeArchSpec("M2"));
  machine.cpu().SetCorruptionHook(&hook);
  reference_machine.cpu().SetCorruptionHook(&hook);
  for (const std::span<const uint8_t> all :
       {std::span<const uint8_t>(random), std::span<const uint8_t>(saturated)}) {
    for (size_t length : lengths) {
      const std::span<const uint8_t> data = all.first(length);
      ASSERT_EQ(Adler32(data), Adler32Reference(data)) << length;
      ASSERT_EQ(Adler32OnProcessor(machine.cpu(), 0, data),
                Adler32OnProcessorReference(reference_machine.cpu(), 0, data))
          << length;
    }
  }
  EXPECT_EQ(machine.cpu().total_op_count(OpKind::kIntAdd),
            reference_machine.cpu().total_op_count(OpKind::kIntAdd));
  EXPECT_GT(machine.cpu().total_op_count(OpKind::kIntAdd), 0u);
}

TEST(Crc64Test, EmptyAndStability) {
  EXPECT_EQ(Crc64(Bytes("")), 0u);
  const auto data = Bytes("crc64 check payload");
  EXPECT_EQ(Crc64(data), Crc64(data));
  auto modified = data;
  modified[0] ^= 1;
  EXPECT_NE(Crc64(modified), Crc64(data));
}

TEST(Crc64Test, ProcessorPathMatchesHostWhenHealthy) {
  FaultyMachine machine(MakeArchSpec("M3"));
  Rng rng(6);
  for (size_t size : {3u, 8u, 9u, 64u, 1000u}) {
    std::vector<uint8_t> data(size);
    for (auto& byte : data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(Crc64OnProcessor(machine.cpu(), 0, data), Crc64(data)) << size;
  }
}

}  // namespace
}  // namespace sdc
