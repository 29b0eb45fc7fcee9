// MESI-lite coherent shared memory.
//
// Models the piece of the cache hierarchy the paper's consistency SDCs live in: per-physical-
// core cached copies of shared cells with write-invalidate coherence. A healthy processor
// invalidates every remote copy on a write; a processor with a coherence defect (CNST1-style)
// silently drops the invalidation with some probability, so a subsequent read on another core
// observes stale data -- exactly the client-thread/daemon-thread checksum mismatch of
// Section 2.2. The defect decision is delegated to the processor's CorruptionHook.
//
// Without dropped invalidations every cached copy equals memory, so on a processor where
// no defect can drop one (!MayCorrupt(kStore)) the bus keeps no copies at all: each op is
// counted and served from memory, a plain memory bus with the same results and counts.
// The hook's mask is fixed while it is installed (CorruptionHook::CorruptibleOps), so the
// copies a cached bus would hold can never be observed.

#ifndef SDC_SRC_SIM_COHERENCE_H_
#define SDC_SRC_SIM_COHERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sim/processor.h"

namespace sdc {

class CoherentBus {
 public:
  // `cells` is the number of shared 64-bit locations.
  CoherentBus(Processor& cpu, size_t cells);

  // Writes `value` to `addr` from `lcore`, invalidating remote cached copies unless the
  // processor's coherence defect fires (in which case stale copies survive).
  void Write(int lcore, size_t addr, uint64_t value);

  // Reads `addr` from `lcore`. Served from the core's cached copy when present (which may be
  // stale on a defective part); otherwise fetched from memory and cached.
  uint64_t Read(int lcore, size_t addr);

  // Atomic compare-and-swap on `addr`. Atomics use locked bus cycles, so they operate on the
  // authoritative value and always invalidate remote copies (the defect model targets
  // ordinary stores, matching the lock-protected-data failures the paper reports).
  bool AtomicCas(int lcore, size_t addr, uint64_t expected, uint64_t desired);

  // Memory fence on `lcore`: discards the core's cached copies so subsequent reads refetch.
  void Fence(int lcore);

  // Drops all cached copies and zeroes memory.
  void Reset();

  size_t cell_count() const { return memory_.size(); }
  // Authoritative memory value, bypassing caches (for checking, not simulation).
  uint64_t BackingValue(size_t addr) const { return memory_[addr]; }
  // Harness-side initialization of a cell: writes memory and invalidates every cached copy
  // without going through the (possibly defective) simulated store path.
  void DirectWrite(size_t addr, uint64_t value);

 private:
  Processor& cpu_;
  std::vector<uint64_t> memory_;
  // Per-physical-core cached copies: addr -> value.
  std::vector<std::unordered_map<size_t, uint64_t>> cached_;
};

}  // namespace sdc

#endif  // SDC_SRC_SIM_COHERENCE_H_
