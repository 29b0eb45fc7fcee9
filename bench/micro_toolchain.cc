// Microbenchmarks (google-benchmark) for the simulation substrate: testcase batch
// execution on healthy vs defective machines (the corruption hook's overhead), thermal
// stepping, and the coherent-bus handoff path. Kernel rows report `s_per_op`, the time per
// simulated op, so the instruction-loop layer (loop.*/vec.*, batched through
// Processor::ExecuteBatch) has its own per-op figure beside the per-op kernels.

#include <benchmark/benchmark.h>

#include "src/fault/catalog.h"
#include "src/fault/machine.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

void RunKernelOnce(const TestSuite& suite, FaultyMachine& machine, int index, Rng& rng,
                   std::vector<SdcRecord>& records) {
  TestContext context;
  context.machine = &machine;
  context.rng = &rng;
  context.records = &records;
  context.max_records = 16;
  context.cpu_id = machine.info().cpu_id;
  context.lcores = {0};
  if (suite.info(index).multithreaded) {
    context.lcores.push_back(machine.cpu().spec().threads_per_core);
  }
  suite.at(index).RunBatch(context);
}

uint64_t TotalOps(const Processor& cpu) {
  uint64_t total = 0;
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    total += cpu.total_op_count(static_cast<OpKind>(kind));
  }
  return total;
}

// Time per simulated op over the whole run (console: SI-prefixed seconds, e.g. "3.1n").
void ReportTimePerOp(benchmark::State& state, const Processor& cpu, uint64_t ops_before) {
  state.counters["s_per_op"] =
      benchmark::Counter(static_cast<double>(TotalOps(cpu) - ops_before),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_KernelHealthy(benchmark::State& state, const char* testcase_id) {
  static const TestSuite suite = TestSuite::BuildFull();
  FaultyMachine machine(MakeArchSpec("M2"));
  const int index = suite.IndexOf(testcase_id);
  Rng rng(1);
  std::vector<SdcRecord> records;
  const uint64_t ops_before = TotalOps(machine.cpu());
  for (auto _ : state) {
    RunKernelOnce(suite, machine, index, rng, records);
    records.clear();
  }
  ReportTimePerOp(state, machine.cpu(), ops_before);
}
BENCHMARK_CAPTURE(BM_KernelHealthy, matmul_f64, "app.matmul.f64.n16.l8");
BENCHMARK_CAPTURE(BM_KernelHealthy, crc_vector, "lib.crc32.vector.b4096");
BENCHMARK_CAPTURE(BM_KernelHealthy, arctan, "lib.math.fp_arctan.f64.n256");
BENCHMARK_CAPTURE(BM_KernelHealthy, tx_invariant, "mt.tx.invariant.r50");
BENCHMARK_CAPTURE(BM_KernelHealthy, loop_xor_bin32, "loop.logic_xor.bin32.n480");
BENCHMARK_CAPTURE(BM_KernelHealthy, loop_fma_f64x, "loop.fp_fma.f64x.n480");
BENCHMARK_CAPTURE(BM_KernelHealthy, vec_fma_f32, "vec.vec_fma_f32.f32.l8.n128");

void BM_KernelFaulty(benchmark::State& state, const char* testcase_id) {
  static const TestSuite suite = TestSuite::BuildFull();
  FaultyMachine machine(FindInCatalog("MIX1"), 5);
  machine.cpu().SetTimeScale(1e5);
  const int index = suite.IndexOf(testcase_id);
  Rng rng(1);
  std::vector<SdcRecord> records;
  const uint64_t ops_before = TotalOps(machine.cpu());
  for (auto _ : state) {
    RunKernelOnce(suite, machine, index, rng, records);
    records.clear();
  }
  ReportTimePerOp(state, machine.cpu(), ops_before);
}
BENCHMARK_CAPTURE(BM_KernelFaulty, matmul_f64, "app.matmul.f64.n16.l8");
BENCHMARK_CAPTURE(BM_KernelFaulty, crc_vector, "lib.crc32.vector.b4096");
// MIX1's defects hit xor on bin32 and the f32 vector FMA; its FPU defect covers fp_fma but
// not f64x, so that row resolves an empty activation table per batch.
BENCHMARK_CAPTURE(BM_KernelFaulty, loop_xor_bin32, "loop.logic_xor.bin32.n480");
BENCHMARK_CAPTURE(BM_KernelFaulty, loop_fma_f64x, "loop.fp_fma.f64x.n480");
BENCHMARK_CAPTURE(BM_KernelFaulty, vec_fma_f32, "vec.vec_fma_f32.f32.l8.n128");

void BM_ThermalAdvance(benchmark::State& state) {
  ThermalModel thermal(static_cast<int>(state.range(0)));
  std::vector<double> utilization(static_cast<size_t>(state.range(0)), 0.7);
  for (auto _ : state) {
    thermal.Advance(1.0, utilization);
    benchmark::DoNotOptimize(thermal.core_temperature(0));
  }
}
BENCHMARK(BM_ThermalAdvance)->Arg(8)->Arg(32);

void BM_CoherentHandoff(benchmark::State& state) {
  FaultyMachine machine(MakeArchSpec("M2"));
  CoherentBus& bus = machine.bus();
  uint64_t value = 0;
  for (auto _ : state) {
    bus.Write(0, 1, ++value);
    benchmark::DoNotOptimize(bus.Read(2, 1));
  }
}
BENCHMARK(BM_CoherentHandoff);

void BM_FullSuiteBuild(benchmark::State& state) {
  for (auto _ : state) {
    TestSuite suite = TestSuite::BuildFull();
    benchmark::DoNotOptimize(suite.size());
  }
}
BENCHMARK(BM_FullSuiteBuild);

}  // namespace
}  // namespace sdc

BENCHMARK_MAIN();
