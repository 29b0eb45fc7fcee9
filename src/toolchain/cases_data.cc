// Data-processing kernels: run-length encoding, histograms, bit packing, base64, and
// chunked memory comparison -- plus the flag/data message-passing consistency test
// (publish-subscribe without checksums, caught by embedded sequence numbers).

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "src/toolchain/cases.h"

namespace sdc {
namespace {

class RleCase : public TestcaseBase {
 public:
  RleCase(TestcaseInfo info, int bytes) : TestcaseBase(std::move(info)), bytes_(bytes) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    // Runs-heavy input so RLE does real work.
    std::vector<uint8_t> input;
    input.reserve(static_cast<size_t>(bytes_));
    while (static_cast<int>(input.size()) < bytes_) {
      const auto value = static_cast<uint8_t>(context.rng->NextBelow(8));
      const auto run = static_cast<int>(context.rng->NextBelow(12)) + 1;
      for (int i = 0; i < run && static_cast<int>(input.size()) < bytes_; ++i) {
        input.push_back(value);
      }
    }
    // Encode: (count, value) pairs; run counts are computed through the processor.
    std::vector<uint8_t> encoded;
    size_t index = 0;
    bool corrupted_encoding = false;
    while (index < input.size()) {
      uint8_t count = 1;
      while (index + count < input.size() && count < 255 &&
             input[index + count] == input[index]) {
        const auto next = static_cast<uint8_t>(count + 1);
        const auto routed = static_cast<uint8_t>(
            cpu.ExecuteRaw(lcore, OpKind::kIntAdd, next, DataType::kByte));
        if (routed != next) {
          context.RecordComputation(info_.id, lcore, DataType::kByte,
                                    BitsOfRaw(next, 8), BitsOfRaw(routed, 8));
          corrupted_encoding = true;
        }
        count = routed == 0 ? next : routed;  // keep making progress even when corrupted
      }
      encoded.push_back(count);
      encoded.push_back(input[index]);
      index += count;
      if (index > input.size()) {
        break;  // a corrupted count overshot the input
      }
    }
    // Decode host-side and verify the round trip (only meaningful when encoding is clean).
    if (!corrupted_encoding) {
      std::vector<uint8_t> decoded;
      for (size_t i = 0; i + 1 < encoded.size(); i += 2) {
        decoded.insert(decoded.end(), encoded[i], encoded[i + 1]);
      }
      if (decoded != input) {
        context.RecordComputation(info_.id, lcore, DataType::kByte, BitsOfRaw(0, 8),
                                  BitsOfRaw(1, 8));
      }
    }
  }

 private:
  int bytes_;
};

class HistogramCase : public TestcaseBase {
 public:
  HistogramCase(TestcaseInfo info, int samples)
      : TestcaseBase(std::move(info)), samples_(samples) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::array<int32_t, 16> golden{};
    std::array<int32_t, 16> routed{};
    for (int i = 0; i < samples_; ++i) {
      const auto bucket = static_cast<size_t>(context.rng->NextBelow(16));
      golden[bucket] += 1;
      routed[bucket] = cpu.ExecuteI32(lcore, OpKind::kIntAdd, routed[bucket] + 1);
    }
    for (size_t bucket = 0; bucket < golden.size(); ++bucket) {
      if (routed[bucket] != golden[bucket]) {
        context.RecordComputation(info_.id, lcore, DataType::kInt32,
                                  BitsOfInt32(golden[bucket]),
                                  BitsOfInt32(routed[bucket]));
      }
    }
  }

 private:
  int samples_;
};

class BitPackCase : public TestcaseBase {
 public:
  BitPackCase(TestcaseInfo info, int values)
      : TestcaseBase(std::move(info)), values_(values) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    // Pack 8-bit samples four to a 32-bit word via routed shift+or; unpack host-side.
    for (int i = 0; i < values_; i += 4) {
      uint8_t samples[4];
      uint32_t golden_word = 0;
      for (int k = 0; k < 4; ++k) {
        samples[k] = static_cast<uint8_t>(context.rng->Next());
        golden_word |= static_cast<uint32_t>(samples[k]) << (8 * k);
      }
      const uint64_t routed_word =
          cpu.ExecuteRaw(lcore, OpKind::kIntShift, golden_word, DataType::kBin32);
      if (routed_word != golden_word) {
        context.RecordComputation(info_.id, lcore, DataType::kBin32,
                                  BitsOfRaw(golden_word, 32), BitsOfRaw(routed_word, 32));
        continue;
      }
      for (int k = 0; k < 4; ++k) {
        const auto unpacked = static_cast<uint8_t>(routed_word >> (8 * k));
        if (unpacked != samples[k]) {
          context.RecordComputation(info_.id, lcore, DataType::kByte,
                                    BitsOfRaw(samples[k], 8), BitsOfRaw(unpacked, 8));
        }
      }
    }
  }

 private:
  int values_;
};

class Base64Case : public TestcaseBase {
 public:
  Base64Case(TestcaseInfo info, int bytes) : TestcaseBase(std::move(info)), bytes_(bytes) {}

  void RunBatch(TestContext& context) override {
    static constexpr char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<uint8_t> input(static_cast<size_t>(bytes_));
    for (auto& byte : input) {
      byte = static_cast<uint8_t>(context.rng->Next());
    }
    // Encode 3 bytes -> 4 sextets; each sextet extraction runs on the processor.
    for (size_t i = 0; i + 2 < input.size(); i += 3) {
      const uint32_t group = (static_cast<uint32_t>(input[i]) << 16) |
                             (static_cast<uint32_t>(input[i + 1]) << 8) | input[i + 2];
      for (int k = 3; k >= 0; --k) {
        const auto golden_sextet = static_cast<uint8_t>((group >> (6 * k)) & 0x3f);
        const auto routed_sextet = static_cast<uint8_t>(
            cpu.ExecuteRaw(lcore, OpKind::kLogicAnd, golden_sextet, DataType::kByte));
        if (routed_sextet != golden_sextet ||
            kAlphabet[routed_sextet & 0x3f] != kAlphabet[golden_sextet]) {
          context.RecordComputation(info_.id, lcore, DataType::kByte,
                                    BitsOfRaw(golden_sextet, 8),
                                    BitsOfRaw(routed_sextet, 8));
        }
      }
    }
  }

 private:
  int bytes_;
};

class MemcmpCase : public TestcaseBase {
 public:
  MemcmpCase(TestcaseInfo info, int bytes) : TestcaseBase(std::move(info)), bytes_(bytes) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<uint8_t> a(static_cast<size_t>(bytes_));
    for (auto& byte : a) {
      byte = static_cast<uint8_t>(context.rng->Next());
    }
    std::vector<uint8_t> b = a;
    // Flip one byte half of the time: the comparison must find it (or report equal).
    int difference_at = -1;
    if (context.rng->NextBernoulli(0.5)) {
      difference_at = static_cast<int>(context.rng->NextBelow(a.size()));
      b[difference_at] ^= 0x20;
    }
    // Chunked compare: per 8-byte chunk verdict runs on the processor.
    int found_at = -1;
    for (size_t offset = 0; offset < a.size(); offset += 8) {
      const size_t length = std::min<size_t>(8, a.size() - offset);
      const int32_t golden_cmp = std::memcmp(a.data() + offset, b.data() + offset, length);
      const int32_t routed_cmp = cpu.ExecuteI32(lcore, OpKind::kCompare, golden_cmp);
      if (routed_cmp != golden_cmp) {
        context.RecordComputation(info_.id, lcore, DataType::kInt32,
                                  BitsOfInt32(golden_cmp), BitsOfInt32(routed_cmp));
      }
      if (routed_cmp != 0 && found_at < 0) {
        found_at = static_cast<int>(offset);
      }
    }
    const int golden_chunk = difference_at < 0 ? -1 : difference_at / 8 * 8;
    if (found_at != golden_chunk) {
      context.RecordComputation(info_.id, lcore, DataType::kInt32,
                                BitsOfInt32(golden_chunk), BitsOfInt32(found_at));
    }
  }

 private:
  int bytes_;
};


// Pads a round with private-cell loads so consistency-op rates land near the calibrated
// ~1e6/s instead of the raw scalar rate (same role as the handoff cases' padding).
void PadRound(TestContext& context, int lcore, int loads) {
  CoherentBus& bus = context.machine->bus();
  const size_t private_base = FaultyMachine::kSharedCells - 64;
  for (int i = 0; i < loads; ++i) {
    bus.Read(lcore, private_base + static_cast<size_t>(i % 32));
  }
}

// Seqlock reader/writer: the writer marks the version odd, updates the payload, and
// publishes an even version; readers accept a snapshot only when the version is even and
// unchanged across the read. A dropped invalidation lets a reader pair a stale version
// with a partially fresh payload -- an inconsistent snapshot the version check cannot see.
class SeqlockCase : public TestcaseBase {
 public:
  SeqlockCase(TestcaseInfo info, int words, int rounds)
      : TestcaseBase(std::move(info)), words_(words), rounds_(rounds) {}

  void RunBatch(TestContext& context) override {
    CoherentBus& bus = context.machine->bus();
    const int writer = context.lcores[0];
    const int reader = context.lcores[1];
    const size_t base = 1800;  // clear of the other consistency regions
    const size_t version_addr = base + static_cast<size_t>(words_);
    for (size_t w = 0; w <= static_cast<size_t>(words_); ++w) {
      bus.DirectWrite(base + w, 0);
    }
    for (size_t w = 0; w <= static_cast<size_t>(words_); ++w) {
      bus.Read(reader, base + w);  // warm the reader's cache
    }
    for (int round = 1; round <= rounds_; ++round) {
      // Writer: odd version -> payload -> even version.
      bus.Write(writer, version_addr, 2u * round - 1);
      for (int w = 0; w < words_; ++w) {
        bus.Write(writer, base + static_cast<size_t>(w), static_cast<uint64_t>(round));
      }
      bus.Write(writer, version_addr, 2u * round);
      // Reader: versioned snapshot with bounded retries.
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint64_t before = bus.Read(reader, version_addr);
        if (before % 2 != 0) {
          continue;  // writer in progress (cannot happen in this serialized schedule)
        }
        bool inconsistent = false;
        for (int w = 0; w < words_; ++w) {
          const uint64_t value = bus.Read(reader, base + static_cast<size_t>(w));
          if (value != before / 2) {
            inconsistent = true;
          }
        }
        const uint64_t after = bus.Read(reader, version_addr);
        if (after != before) {
          continue;  // torn by a concurrent write: retry, per the protocol
        }
        if (inconsistent) {
          // The version check accepted a snapshot whose payload disagrees with it.
          context.RecordConsistency(info_.id, reader);
          bus.Fence(reader);
        }
        break;
      }
      PadRound(context, writer, 120);
      PadRound(context, reader, 120);
    }
  }

 private:
  int words_;
  int rounds_;
};

// Flag/data publication: the producer writes a payload then publishes a sequence number;
// the consumer sees the new sequence but (on a defective part) stale payload words.
class MessagePassingCase : public TestcaseBase {
 public:
  MessagePassingCase(TestcaseInfo info, int words, int rounds)
      : TestcaseBase(std::move(info)), words_(words), rounds_(rounds) {}

  void RunBatch(TestContext& context) override {
    CoherentBus& bus = context.machine->bus();
    const int producer = context.lcores[0];
    const int consumer = context.lcores[1];
    const size_t base = 1500;  // clear of the handoff/lock regions
    const size_t flag_addr = base + static_cast<size_t>(words_);
    for (size_t w = 0; w <= static_cast<size_t>(words_); ++w) {
      bus.DirectWrite(base + w, 0);
    }
    // Warm the consumer's cache.
    for (size_t w = 0; w <= static_cast<size_t>(words_); ++w) {
      bus.Read(consumer, base + w);
    }
    for (int round = 1; round <= rounds_; ++round) {
      // Payload words embed the round number, so staleness is directly observable.
      for (int w = 0; w < words_; ++w) {
        bus.Write(producer, base + static_cast<size_t>(w),
                  (static_cast<uint64_t>(round) << 32) | static_cast<uint64_t>(w));
      }
      bus.Write(producer, flag_addr, static_cast<uint64_t>(round));
      // Consumer: wait for the flag, then read the payload.
      const uint64_t seen_flag = bus.Read(consumer, flag_addr);
      bool stale = false;
      for (int w = 0; w < words_; ++w) {
        const uint64_t value = bus.Read(consumer, base + static_cast<size_t>(w));
        if ((value >> 32) != seen_flag) {
          stale = true;
        }
      }
      if (stale) {
        context.RecordConsistency(info_.id, consumer);
        bus.Fence(consumer);
      }
    }
  }

 private:
  int words_;
  int rounds_;
};

}  // namespace

std::unique_ptr<Testcase> MakeRleCase(int bytes) {
  TestcaseInfo info;
  info.id = "app.rle.b" + std::to_string(bytes);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kIntAdd};
  info.types = {DataType::kByte};
  info.ops_depend_on_inputs = true;  // one routed count per repeated byte
  return std::make_unique<RleCase>(std::move(info), bytes);
}

std::unique_ptr<Testcase> MakeHistogramCase(int samples) {
  TestcaseInfo info;
  info.id = "app.histogram.n" + std::to_string(samples);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kIntAdd};
  info.types = {DataType::kInt32};
  return std::make_unique<HistogramCase>(std::move(info), samples);
}

std::unique_ptr<Testcase> MakeBitPackCase(int values) {
  TestcaseInfo info;
  info.id = "lib.bitpack.n" + std::to_string(values);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kLibraryCall;
  info.ops = {OpKind::kIntShift};
  info.types = {DataType::kBin32, DataType::kByte};
  return std::make_unique<BitPackCase>(std::move(info), values);
}

std::unique_ptr<Testcase> MakeBase64Case(int bytes) {
  TestcaseInfo info;
  info.id = "lib.base64.b" + std::to_string(bytes);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kLibraryCall;
  info.ops = {OpKind::kLogicAnd};
  info.types = {DataType::kByte};
  return std::make_unique<Base64Case>(std::move(info), bytes);
}

std::unique_ptr<Testcase> MakeMemcmpCase(int bytes) {
  TestcaseInfo info;
  info.id = "lib.memcmp.b" + std::to_string(bytes);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kLibraryCall;
  info.ops = {OpKind::kCompare};
  info.types = {DataType::kInt32};
  return std::make_unique<MemcmpCase>(std::move(info), bytes);
}


std::unique_ptr<Testcase> MakeSeqlockCase(int words, int rounds) {
  TestcaseInfo info;
  info.id = "mt.coherence.seqlock.w" + std::to_string(words) + ".r" + std::to_string(rounds);
  info.target = Feature::kCache;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kStore, OpKind::kLoad};
  info.types = {};
  info.multithreaded = true;
  return std::make_unique<SeqlockCase>(std::move(info), words, rounds);
}

std::unique_ptr<Testcase> MakeMessagePassingCase(int words, int rounds) {
  TestcaseInfo info;
  info.id = "mt.coherence.msgpass.w" + std::to_string(words) + ".r" + std::to_string(rounds);
  info.target = Feature::kCache;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kStore, OpKind::kLoad};
  info.types = {};
  info.multithreaded = true;
  return std::make_unique<MessagePassingCase>(std::move(info), words, rounds);
}

}  // namespace sdc
