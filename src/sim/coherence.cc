#include "src/sim/coherence.h"

namespace sdc {

CoherentBus::CoherentBus(Processor& cpu, size_t cells)
    : cpu_(cpu),
      memory_(cells, 0),
      cached_(static_cast<size_t>(cpu.spec().physical_cores)) {}

void CoherentBus::Write(int lcore, size_t addr, uint64_t value) {
  memory_[addr] = value;
  if (!cpu_.MayCorrupt(OpKind::kStore)) {
    cpu_.CountCleanOps(lcore, OpKind::kStore, 1);
    return;
  }
  const OpContext context = cpu_.MakeContext(lcore, OpKind::kStore, DataType::kBin64);
  cached_[context.pcore][addr] = value;
  if (cpu_.corruption_hook()->OnCoherenceFault(context)) {
    return;  // remote stale copies survive
  }
  for (size_t pcore = 0; pcore < cached_.size(); ++pcore) {
    if (static_cast<int>(pcore) != context.pcore) {
      cached_[pcore].erase(addr);
    }
  }
}

uint64_t CoherentBus::Read(int lcore, size_t addr) {
  cpu_.CountCleanOps(lcore, OpKind::kLoad, 1);
  if (!cpu_.MayCorrupt(OpKind::kStore)) {
    return memory_[addr];
  }
  auto& cache = cached_[static_cast<size_t>(cpu_.pcore_of(lcore))];
  if (auto it = cache.find(addr); it != cache.end()) {
    return it->second;  // may be stale when an invalidation was dropped
  }
  const uint64_t value = memory_[addr];
  cache[addr] = value;
  return value;
}

bool CoherentBus::AtomicCas(int lcore, size_t addr, uint64_t expected, uint64_t desired) {
  cpu_.CountCleanOps(lcore, OpKind::kAtomicCas, 1);
  if (memory_[addr] != expected) {
    return false;
  }
  memory_[addr] = desired;
  if (!cpu_.MayCorrupt(OpKind::kStore)) {
    return true;
  }
  for (size_t pcore = 0; pcore < cached_.size(); ++pcore) {
    cached_[pcore].erase(addr);
  }
  cached_[static_cast<size_t>(cpu_.pcore_of(lcore))][addr] = desired;
  return true;
}

void CoherentBus::Fence(int lcore) {
  cpu_.CountCleanOps(lcore, OpKind::kFence, 1);
  if (cpu_.MayCorrupt(OpKind::kStore)) {
    cached_[static_cast<size_t>(cpu_.pcore_of(lcore))].clear();
  }
}

void CoherentBus::DirectWrite(size_t addr, uint64_t value) {
  memory_[addr] = value;
  for (auto& cache : cached_) {
    cache.erase(addr);
  }
}

void CoherentBus::Reset() {
  for (auto& cache : cached_) {
    cache.clear();
  }
  for (auto& cell : memory_) {
    cell = 0;
  }
}

}  // namespace sdc
