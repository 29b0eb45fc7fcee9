#include "src/sim/txmem.h"

namespace sdc {

TxMemory::TxMemory(Processor& cpu, size_t cells)
    : cpu_(cpu), cells_(cells, 0), versions_(cells, 0) {}

int TxMemory::Begin(int lcore) {
  cpu_.CountCleanOps(lcore, OpKind::kTxBegin, 1);
  // Reuse a finished slot if possible to keep handles dense.
  for (size_t i = 0; i < transactions_.size(); ++i) {
    if (!transactions_[i].active) {
      transactions_[i] = Transaction{};
      transactions_[i].lcore = lcore;
      transactions_[i].start_version = global_version_;
      transactions_[i].active = true;
      return static_cast<int>(i);
    }
  }
  Transaction tx;
  tx.lcore = lcore;
  tx.start_version = global_version_;
  tx.active = true;
  transactions_.push_back(std::move(tx));
  return static_cast<int>(transactions_.size() - 1);
}

uint64_t TxMemory::Read(int tx, size_t addr) {
  Transaction& t = transactions_[tx];
  cpu_.CountCleanOps(t.lcore, OpKind::kTxRead, 1);
  if (auto it = t.write_set.find(addr); it != t.write_set.end()) {
    return it->second;  // read-own-write
  }
  t.read_versions.emplace(addr, versions_[addr]);
  return cells_[addr];
}

void TxMemory::Write(int tx, size_t addr, uint64_t value) {
  Transaction& t = transactions_[tx];
  cpu_.CountCleanOps(t.lcore, OpKind::kTxWrite, 1);
  t.write_set[addr] = value;
}

bool TxMemory::Commit(int tx) {
  Transaction& t = transactions_[tx];
  // Without a defect on kTxCommit, OnTxFault would return false and draw nothing, so
  // nobody reads the context.
  const bool may_skip_validation = cpu_.MayCorrupt(OpKind::kTxCommit);
  OpContext context;
  if (may_skip_validation) {
    context = cpu_.MakeContext(t.lcore, OpKind::kTxCommit, DataType::kBin64);
  } else {
    cpu_.CountCleanOps(t.lcore, OpKind::kTxCommit, 1);
  }
  bool conflict = false;
  for (const auto& [addr, seen_version] : t.read_versions) {
    if (versions_[addr] != seen_version) {
      conflict = true;
      break;
    }
  }
  if (conflict) {
    if (!may_skip_validation || !cpu_.corruption_hook()->OnTxFault(context)) {
      t.active = false;
      return false;  // proper abort; caller retries
    }
    ++isolation_violations_;  // defective part: commit despite the conflict
  }
  ++global_version_;
  for (const auto& [addr, value] : t.write_set) {
    cells_[addr] = value;
    versions_[addr] = global_version_;
  }
  t.active = false;
  return true;
}

void TxMemory::Abort(int tx) {
  Transaction& t = transactions_[tx];
  cpu_.CountCleanOps(t.lcore, OpKind::kTxAbort, 1);
  t.active = false;
}

void TxMemory::Reset() {
  for (auto& cell : cells_) {
    cell = 0;
  }
  for (auto& version : versions_) {
    version = 0;
  }
  transactions_.clear();
  global_version_ = 0;
  isolation_violations_ = 0;
}

}  // namespace sdc
