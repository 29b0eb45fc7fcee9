// The testcase kernel library: parameterized testcase families from which the registry
// builds the full 633-case suite. Families mirror the manufacturer toolchain's range
// (Section 2.3): single-instruction loops, library-call kernels (checksums, math functions,
// erasure coding), and application logic (storage server write path, hash-map metadata,
// matrix pipelines), plus the multi-threaded consistency tests (coherence handoffs, locks,
// transactions) that Section 4.1 notes are the only way to catch consistency-type SDCs.
//
// Every kernel computes golden values natively and routes results through the simulated
// processor, then checks the routed values -- so a healthy machine never reports an error
// and a defective one reports exactly the corruptions its defects inject.

#ifndef SDC_SRC_TOOLCHAIN_CASES_H_
#define SDC_SRC_TOOLCHAIN_CASES_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/toolchain/testcase.h"

namespace sdc {

// Base carrying the info block; kernels implement RunBatch.
class TestcaseBase : public Testcase {
 public:
  explicit TestcaseBase(TestcaseInfo info) : info_(std::move(info)) {}
  const TestcaseInfo& info() const override { return info_; }

 protected:
  TestcaseInfo info_;
};

// --- Computation: instruction loops ---

// Tight loop over one scalar op on one datatype (i16/i32/ui32/f32/f64/f80/bin*).
std::unique_ptr<Testcase> MakeScalarSweepCase(OpKind op, DataType type, int elements);

// Tight loop over one vector op: `lanes` results routed per vector instruction.
std::unique_ptr<Testcase> MakeVectorSweepCase(OpKind op, DataType type, int lanes,
                                              int vectors);

// Records, in element order, each instruction-loop op whose routed result image differs
// from its golden one. The comparison is the one a typed Processor::Execute* round trip
// makes: integers at their width, f32/f64 as values (+0 == -0, NaN != NaN), f64x on the
// canonical x87 image, raw payloads on the low word (masked to their width in the record).
void RecordLoopMismatches(TestContext& context, const std::string& testcase_id, int lcore,
                          DataType type, std::span<const Word128> golden,
                          std::span<const Word128> routed);

// --- Computation: library calls ---

// Math-function evaluation chain (arctan/sin/log/exp) on f64 or f64x.
std::unique_ptr<Testcase> MakeMathFunctionCase(OpKind op, DataType type, int points);

// CRC32 of a buffer; scalar or vector-accelerated datapath.
std::unique_ptr<Testcase> MakeChecksumCase(bool vectorized, int buffer_bytes);

// Horner polynomial evaluation via scalar FMA (f64), with error propagation.
std::unique_ptr<Testcase> MakePolynomialCase(int degree, int points);

// Reed-Solomon parity generation via the vector GF(256) path.
std::unique_ptr<Testcase> MakeErasureCase(int data_shards, int parity_shards,
                                          int shard_bytes);

// Multi-limb ("big integer") add/multiply on uint32 limbs.
std::unique_ptr<Testcase> MakeBigIntCase(OpKind op, int limbs);

// Byte-buffer string manipulation (transform + compare).
std::unique_ptr<Testcase> MakeStringCase(int bytes);

// --- Computation: application logic ---

// Matrix multiply (f32/f64 via vector FMA, i32 via scalar multiply-add).
std::unique_ptr<Testcase> MakeMatrixMultiplyCase(DataType type, int dimension, int lanes);

// Storage-server write path: block + CRC, verify on read-back (the Section 2.2 incident).
std::unique_ptr<Testcase> MakeStorageServerCase(int block_bytes, bool vectorized_crc);

// Hash-map metadata service: insert/lookup with hashing on the processor (Section 2.2).
std::unique_ptr<Testcase> MakeHashMapCase(int operations);

// Numerical integration of sin(x) (trapezoid rule): FPU application mix.
std::unique_ptr<Testcase> MakeIntegrationCase(int intervals);

// --- Computation: numerical applications ---

// Radix-2 complex FFT with routed butterflies (corruption propagates across stages).
std::unique_ptr<Testcase> MakeFftCase(int size);

// LU decomposition (Doolittle, diagonally dominant input) with routed updates.
std::unique_ptr<Testcase> MakeLuDecompositionCase(int dimension);

// 1-D heat-equation stencil iteration with routed cell updates.
std::unique_ptr<Testcase> MakeStencilCase(int cells, int steps);

// Monte Carlo pi estimation: the per-sample distance computation is routed.
std::unique_ptr<Testcase> MakeMonteCarloCase(int samples);

// Insertion sort whose comparison verdicts are routed; sortedness verified host-side.
std::unique_ptr<Testcase> MakeSortCheckCase(int elements);

// Binary search over a sorted array with routed comparisons.
std::unique_ptr<Testcase> MakeBinarySearchCase(int elements, int queries);

// --- Computation: data processing ---

// Run-length encode/decode round trip with routed run counters.
std::unique_ptr<Testcase> MakeRleCase(int bytes);

// Bucketed histogram with routed increments.
std::unique_ptr<Testcase> MakeHistogramCase(int samples);

// Byte packing into 32-bit words via routed shift/or, verified by unpacking.
std::unique_ptr<Testcase> MakeBitPackCase(int values);

// Base64 sextet extraction through the processor.
std::unique_ptr<Testcase> MakeBase64Case(int bytes);

// Chunked memcmp with routed comparison verdicts.
std::unique_ptr<Testcase> MakeMemcmpCase(int bytes);

// Adler-32 checksum of a buffer with routed block sums.
std::unique_ptr<Testcase> MakeAdlerChecksumCase(int bytes);

// CRC-64/ECMA checksum of a buffer with routed block steps.
std::unique_ptr<Testcase> MakeCrc64Case(int bytes);

// Proxy-fuzzing case: a deterministic pseudo-random mix over the scalar/vector op pools
// (SiliFuzz/OpenDCDiag style, Section 6.1), self-checking every routed result.
std::unique_ptr<Testcase> MakeFuzzCase(uint64_t stream_seed, int ops);

// --- Consistency: multi-threaded tests ---

// Flag/data publication (sequence-numbered payload) over the coherent bus.
std::unique_ptr<Testcase> MakeMessagePassingCase(int words, int rounds);

// Seqlock reader/writer: versioned snapshots whose consistency check a dropped
// invalidation silently defeats.
std::unique_ptr<Testcase> MakeSeqlockCase(int words, int rounds);


// Producer/consumer data+checksum handoff over the coherent bus.
std::unique_ptr<Testcase> MakeCoherenceHandoffCase(int payload_bytes, int rounds);

// Spinlock-protected shared counter (atomic CAS lock, plain data accesses).
std::unique_ptr<Testcase> MakeLockCounterCase(int increments);

// Transactional two-cell invariant (x == y) under conflicting transactions.
std::unique_ptr<Testcase> MakeTxInvariantCase(int rounds);

// Transactional transfers conserving a total balance.
std::unique_ptr<Testcase> MakeTxBankCase(int accounts, int transfers);

}  // namespace sdc

#endif  // SDC_SRC_TOOLCHAIN_CASES_H_
