#include "src/sim/processor.h"

#include <algorithm>

namespace sdc {

Processor::Processor(ProcessorSpec spec)
    : spec_(std::move(spec)),
      thermal_(spec_.physical_cores, spec_.thermal),
      cores_(static_cast<size_t>(spec_.physical_cores)),
      utilization_(static_cast<size_t>(spec_.physical_cores), 0.0) {}

OpContext Processor::CountOps(int lcore, OpKind op, DataType type, uint64_t count) {
  const int pcore = pcore_of(lcore);
  CoreState& core = cores_[pcore];
  const int kind = static_cast<int>(op);
  core.op_counts[kind] += count;
  core.ops_since_advance[kind] += count;
  core.busy_cycles_unconsumed += count * static_cast<uint64_t>(LatencyCycles(op));
  OpContext context;
  context.pcore = pcore;
  context.lcore = lcore;
  context.op = op;
  context.type = type;
  context.temperature = thermal_.core_temperature(pcore);
  context.utilization = utilization_[pcore];
  context.op_intensity = core.op_intensity[kind];
  context.weight = time_scale_;
  return context;
}

void Processor::ExecuteBatch(int lcore, OpKind op, DataType type, std::span<Word128> values) {
  const OpContext context = CountOps(lcore, op, type, values.size());
  if (hook_ != nullptr && !values.empty()) {
    hook_->OnExecuteBatch(context, values);
  }
}

Word128 Processor::Execute(int lcore, OpKind op, DataType type, const Word128& golden_bits) {
  Word128 value = golden_bits;
  ExecuteBatch(lcore, op, type, std::span<Word128>(&value, 1));
  return value;
}

int32_t Processor::ExecuteI32(int lcore, OpKind op, int32_t golden) {
  return Int32FromBits(Execute(lcore, op, DataType::kInt32, BitsOfInt32(golden)));
}

uint32_t Processor::ExecuteU32(int lcore, OpKind op, uint32_t golden) {
  return UInt32FromBits(Execute(lcore, op, DataType::kUInt32, BitsOfUInt32(golden)));
}

float Processor::ExecuteF32(int lcore, OpKind op, float golden) {
  return FloatFromBits(Execute(lcore, op, DataType::kFloat32, BitsOfFloat(golden)));
}

double Processor::ExecuteF64(int lcore, OpKind op, double golden) {
  return DoubleFromBits(Execute(lcore, op, DataType::kFloat64, BitsOfDouble(golden)));
}

long double Processor::ExecuteF80(int lcore, OpKind op, long double golden) {
  return Float80FromBits(Execute(lcore, op, DataType::kFloat80, BitsOfFloat80(golden)));
}

uint64_t Processor::ExecuteRaw(int lcore, OpKind op, uint64_t golden, DataType type) {
  return RawFromBits(Execute(lcore, op, type, BitsOfRaw(golden, BitWidth(type))));
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
      const double fresh =
          static_cast<double>(core.ops_since_advance[kind]) * time_scale_ / dt_seconds;
      core.op_intensity[kind] = (1.0 - kBlend) * core.op_intensity[kind] + kBlend * fresh;
      core.ops_since_advance[kind] = 0;
    }
  }
}

double Processor::ConsumeBusySeconds(int pcore) {
  CoreState& core = cores_[pcore];
  const double seconds =
      static_cast<double>(core.busy_cycles_unconsumed) / (spec_.frequency_ghz * 1e9);
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
