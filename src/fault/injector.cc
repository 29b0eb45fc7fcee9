#include "src/fault/injector.h"

#include <algorithm>

namespace sdc {

DefectInjector::DefectInjector(std::vector<Defect> defects, uint64_t seed)
    : defects_(std::move(defects)), activations_(defects_.size(), 0), rng_(seed) {
  op_masks_.reserve(defects_.size());
  type_masks_.reserve(defects_.size());
  for (const Defect& defect : defects_) {
    uint64_t op_mask = 0;
    for (OpKind op : defect.affected_ops) {
      op_mask |= uint64_t{1} << static_cast<int>(op);
    }
    uint32_t type_mask = 0;
    if (defect.affected_types.empty()) {
      type_mask = ~uint32_t{0};
    } else {
      for (DataType type : defect.affected_types) {
        type_mask |= uint32_t{1} << static_cast<int>(type);
      }
    }
    op_masks_.push_back(op_mask);
    type_masks_.push_back(type_mask);
    if (defect.type() == SdcType::kComputation) {
      computation_op_union_ |= op_mask;
    } else {
      consistency_op_union_ |= op_mask;
    }
  }
}

void DefectInjector::ResolveCandidates(const OpContext& context, SdcType want_type) {
  candidates_.clear();
  const uint64_t op_bit = uint64_t{1} << static_cast<int>(context.op);
  const uint32_t type_bit = uint32_t{1} << static_cast<int>(context.type);
  for (size_t i = 0; i < defects_.size(); ++i) {
    if ((op_masks_[i] & op_bit) == 0 || (type_masks_[i] & type_bit) == 0) {
      continue;
    }
    const Defect& defect = defects_[i];
    if (defect.type() != want_type || defect.onset_months > age_months_) {
      continue;
    }
    const double rate =
        defect.RatePerOp(context.temperature, context.op_intensity, context.pcore);
    if (rate <= 0.0) {
      continue;
    }
    // `weight` simulated executions are represented by this one call; the chance that at
    // least one of them corrupts is 1 - (1-rate)^weight ~= rate * weight for small rates.
    candidates_.push_back({i, std::min(1.0, rate * context.weight)});
  }
}

int DefectInjector::DrawActivation() {
  for (const Candidate& candidate : candidates_) {
    if (rng_.NextBernoulli(candidate.probability)) {
      ++activations_[candidate.index];
      ++total_activations_;
      return static_cast<int>(candidate.index);
    }
  }
  return -1;
}

void DefectInjector::OnExecuteBatch(const OpContext& context, std::span<Word128> values) {
  if ((computation_op_union_ & (uint64_t{1} << static_cast<int>(context.op))) == 0) {
    return;  // no defect touches this op kind: the overwhelming fast path
  }
  ResolveCandidates(context, SdcType::kComputation);
  if (candidates_.empty()) {
    return;  // no defect can fire here, so no op of the batch would draw
  }
  for (Word128& value : values) {
    const int index = DrawActivation();
    if (index >= 0) {
      value = defects_[index].Corrupt(value, context.type, rng_);
    }
  }
}

bool DefectInjector::ConsistencyFires(const OpContext& context) {
  if ((consistency_op_union_ & (uint64_t{1} << static_cast<int>(context.op))) == 0) {
    return false;
  }
  ResolveCandidates(context, SdcType::kConsistency);
  return DrawActivation() >= 0;
}

bool DefectInjector::OnCoherenceFault(const OpContext& context) {
  return ConsistencyFires(context);
}

bool DefectInjector::OnTxFault(const OpContext& context) { return ConsistencyFires(context); }

void DefectInjector::ResetCounters() {
  std::fill(activations_.begin(), activations_.end(), 0);
  total_activations_ = 0;
}

}  // namespace sdc
