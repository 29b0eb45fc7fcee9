#include "src/farron/baseline.h"

namespace sdc {

BaselinePolicy::BaselinePolicy(const TestSuite* suite, BaselineConfig config)
    : suite_(suite), config_(config), framework_(suite) {}

RunReport BaselinePolicy::RunRegularRound(FaultyMachine& machine,
                                          EngineContext& context) const {
  TestRunConfig run_config;
  run_config.time_scale = config_.time_scale;
  run_config.simultaneous_cores = false;  // cores tested one after another
  run_config.burn_in_seconds = 0.0;
  run_config.seed = config_.seed;
  return framework_.RunPlan(machine, framework_.EqualPlan(config_.per_case_seconds),
                            run_config, context);
}

double BaselinePolicy::RoundDurationSeconds() const {
  return static_cast<double>(suite_->size()) * config_.per_case_seconds;
}

double BaselinePolicy::TestOverhead() const {
  const double period_seconds = config_.regular_period_months * 30.44 * 24.0 * 3600.0;
  return RoundDurationSeconds() / period_seconds;
}

}  // namespace sdc
