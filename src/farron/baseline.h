// The Alibaba Cloud baseline strategy (Section 7): regular SDC tests every three months,
// every testcase executed sequentially with equal resources, cores tested one at a time at
// production thermals, and the entire processor deprecated on any detected defect.

#ifndef SDC_SRC_FARRON_BASELINE_H_
#define SDC_SRC_FARRON_BASELINE_H_

#include "src/fault/machine.h"
#include "src/toolchain/framework.h"
#include "src/toolchain/registry.h"

namespace sdc {

struct BaselineConfig {
  double per_case_seconds = 60.0;  // 633 cases x 60 s = the paper's 10.55 h round
  double regular_period_months = 3.0;
  double time_scale = 1e7;
  uint64_t seed = 11;
};

class BaselinePolicy {
 public:
  BaselinePolicy(const TestSuite* suite, BaselineConfig config);

  // One round of regular testing (equal time, sequential cores, no burn-in) on `context`.
  RunReport RunRegularRound(FaultyMachine& machine, EngineContext& context) const;

  // Fixed per-round duration: suite size x per-case seconds.
  double RoundDurationSeconds() const;

  // Test overhead: round duration over the regular period (Table 4's baseline column).
  double TestOverhead() const;

  const BaselineConfig& config() const { return config_; }

 private:
  const TestSuite* suite_;
  BaselineConfig config_;
  TestFramework framework_;
};

}  // namespace sdc

#endif  // SDC_SRC_FARRON_BASELINE_H_
