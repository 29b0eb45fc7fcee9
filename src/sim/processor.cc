#include "src/sim/processor.h"

#include <algorithm>

namespace sdc {

Processor::Processor(ProcessorSpec spec)
    : spec_(std::move(spec)),
      thermal_(spec_.physical_cores, spec_.thermal),
      cores_(static_cast<size_t>(spec_.physical_cores)),
      utilization_(static_cast<size_t>(spec_.physical_cores), 0.0) {}

OpContext Processor::CountOps(int lcore, OpKind op, DataType type, uint64_t count) {
  CountCleanOps(lcore, op, count);
  const int pcore = pcore_of(lcore);
  OpContext context;
  context.pcore = pcore;
  context.lcore = lcore;
  context.op = op;
  context.type = type;
  context.temperature = thermal_.core_temperature(pcore);
  context.utilization = utilization_[pcore];
  context.op_intensity = cores_[pcore].op_intensity[static_cast<int>(op)];
  context.weight = time_scale_;
  return context;
}

void Processor::ExecuteBatch(int lcore, OpKind op, DataType type, std::span<Word128> values) {
  if (!MayCorrupt(op)) {
    CountCleanOps(lcore, op, values.size());
    return;
  }
  const OpContext context = CountOps(lcore, op, type, values.size());
  if (!values.empty()) {
    hook_->OnExecuteBatch(context, values);
  }
}

OpContext Processor::MakeContext(int lcore, OpKind op, DataType type) {
  return CountOps(lcore, op, type, 1);
}

void Processor::SetCoreUtilization(int pcore, double utilization) {
  utilization_[pcore] = std::clamp(utilization, 0.0, 1.0);
}

void Processor::AdvanceSeconds(double dt_seconds) {
  if (dt_seconds <= 0.0) {
    return;
  }
  now_seconds_ += dt_seconds;
  thermal_.Advance(dt_seconds, utilization_);
  // Blend fresh rates into the per-kind intensity estimates. The blend factor gives a memory
  // of a few advance periods, matching how quickly usage stress builds in practice.
  constexpr double kBlend = 0.5;
  for (CoreState& core : cores_) {
    for (int kind = 0; kind < kOpKindCount; ++kind) {
      if (core.ops_since_advance[kind] == 0 && core.op_intensity[kind] == 0.0) {
        continue;  // a dead cell: the blend of two zeros would store +0 again
      }
      const double fresh =
          static_cast<double>(core.ops_since_advance[kind]) * time_scale_ / dt_seconds;
      core.op_intensity[kind] = (1.0 - kBlend) * core.op_intensity[kind] + kBlend * fresh;
      core.ops_since_advance[kind] = 0;
    }
  }
}

double Processor::ConsumeBusySeconds(int pcore) {
  CoreState& core = cores_[pcore];
  const double seconds = BusySeconds(core.busy_cycles_unconsumed);
  core.busy_cycles_unconsumed = 0;
  return seconds;
}

uint64_t Processor::op_count(int pcore, OpKind op) const {
  return cores_[pcore].op_counts[static_cast<int>(op)];
}

uint64_t Processor::total_op_count(OpKind op) const {
  uint64_t total = 0;
  for (const CoreState& core : cores_) {
    total += core.op_counts[static_cast<int>(op)];
  }
  return total;
}

}  // namespace sdc
