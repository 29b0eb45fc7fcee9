#include "src/daemon/spec.h"

#include <fstream>
#include <utility>

#include "src/common/parse.h"
#include "src/scrub/scrubber.h"

namespace sdc {

int StageIndexOf(const std::string& name) {
  if (name == "factory") {
    return 0;
  }
  if (name == "datacenter") {
    return 1;
  }
  if (name == "reinstall" || name == "re-install") {
    return 2;
  }
  if (name == "regular") {
    return 3;
  }
  return -1;
}

bool ApplyScenarioAssignment(const std::string& token, SweepScenario& scenario,
                             std::string& error) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    error = "expected key=value, got '" + token + "'";
    return false;
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "name") {
    if (value.empty()) {
      error = "name must not be empty";
      return false;
    }
    scenario.name = value;
    return true;
  }
  if (key == "seed") {
    const auto parsed = ParseUint64(value.c_str());
    if (!parsed.has_value()) {
      error = "invalid seed '" + value + "'";
      return false;
    }
    scenario.config.seed = *parsed;
    return true;
  }
  if (key == "period_months" || key == "horizon_months") {
    const auto parsed = ParseDouble(value.c_str());
    if (!parsed.has_value() || *parsed <= 0.0) {
      error = "invalid " + key + " '" + value + "'";
      return false;
    }
    (key == "period_months" ? scenario.config.regular_period_months
                            : scenario.config.horizon_months) = *parsed;
    return true;
  }
  if (key == "regular_groups") {
    const auto parsed = ParseInt(value.c_str());
    if (!parsed.has_value() || *parsed < 1) {
      error = "invalid regular_groups '" + value + "'";
      return false;
    }
    scenario.config.regular_groups = *parsed;
    return true;
  }
  if (key.rfind("stage.", 0) == 0) {
    const size_t dot = key.find('.', 6);
    if (dot == std::string::npos) {
      error = "expected stage.<stage>.<field>, got '" + key + "'";
      return false;
    }
    const int stage = StageIndexOf(key.substr(6, dot - 6));
    if (stage < 0) {
      error = "unknown stage in '" + key +
              "' (factory | datacenter | reinstall | regular)";
      return false;
    }
    const std::string field = key.substr(dot + 1);
    const auto parsed = ParseDouble(value.c_str());
    if (!parsed.has_value() || *parsed < 0.0) {
      error = "invalid " + key + " '" + value + "'";
      return false;
    }
    StageParams& params = scenario.config.stages[static_cast<size_t>(stage)];
    if (field == "seconds") {
      params.per_case_seconds = *parsed;
    } else if (field == "temp") {
      params.temperature_celsius = *parsed;
    } else if (field == "catch") {
      params.catch_factor = *parsed;
    } else {
      error = "unknown stage field in '" + key + "' (seconds | temp | catch)";
      return false;
    }
    return true;
  }
  error = "unknown key '" + key + "'";
  return false;
}

namespace {

bool CheckRegularRounds(const ScreeningConfig& config, std::string& error) {
  return CheckStepCount(config.horizon_months, config.regular_period_months,
                        kMaxRegularRounds, "period_months", error);
}

}  // namespace

bool ParseSweepSpec(const std::string& spec, std::vector<SweepScenario>& out,
                    std::string& error) {
  if (spec.rfind("seeds:", 0) == 0) {
    const auto count = ParseUint64(spec.substr(6).c_str());
    if (!count.has_value() || *count < 1 || *count > kMaxSweepScenarios) {
      error = "seeds:K needs 1 <= K <= " + std::to_string(kMaxSweepScenarios) +
              ", got '" + spec.substr(6) + "'";
      return false;
    }
    for (uint64_t k = 0; k < *count; ++k) {
      SweepScenario scenario;
      scenario.config.seed += k;
      scenario.name = "seed" + std::to_string(scenario.config.seed);
      out.push_back(std::move(scenario));
    }
    return true;
  }
  std::ifstream file(spec);
  if (!file) {
    error = "cannot open scenario file '" + spec + "'";
    return false;
  }
  std::string line;
  size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    std::istringstream tokens(line);
    std::string token;
    SweepScenario scenario;
    scenario.name = "s" + std::to_string(out.size());
    bool any = false;
    while (tokens >> token) {
      any = true;
      std::string assign_error;
      if (!ApplyScenarioAssignment(token, scenario, assign_error)) {
        error = spec + ":" + std::to_string(line_number) + ": " + assign_error;
        return false;
      }
    }
    if (!any) {
      continue;  // blank or comment-only line
    }
    if (std::string limit_error; !CheckRegularRounds(scenario.config, limit_error)) {
      error = spec + ":" + std::to_string(line_number) + ": " + limit_error;
      return false;
    }
    if (out.size() == kMaxSweepScenarios) {
      error = spec + ": more than " + std::to_string(kMaxSweepScenarios) + " scenarios";
      return false;
    }
    out.push_back(std::move(scenario));
  }
  if (out.empty()) {
    error = spec + ": no scenarios (every line blank or comment)";
    return false;
  }
  return true;
}

bool ParseCampaignSpec(const std::string& text, CampaignSpec& out, std::string& error) {
  CampaignSpec spec;
  SweepScenario base_scenario;
  base_scenario.name = "s0";
  bool any_token = false;
  bool any_scenario_key = false;
  bool any_scrub_key = false;
  std::string sweep_spec;
  std::istringstream tokens(text);
  std::string token;
  while (tokens >> token) {
    any_token = true;
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      error = "expected key=value, got '" + token + "'";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "name") {
      if (value.empty()) {
        error = "name must not be empty";
        return false;
      }
      spec.name = value;
      continue;
    }
    if (key == "processors") {
      const auto parsed = ParseUint64(value.c_str());
      if (!parsed.has_value() || *parsed < 1) {
        error = "invalid processors '" + value + "'";
        return false;
      }
      spec.processors = *parsed;
      continue;
    }
    if (key == "seed") {
      const auto parsed = ParseUint64(value.c_str());
      if (!parsed.has_value()) {
        error = "invalid seed '" + value + "'";
        return false;
      }
      spec.seed = *parsed;
      continue;
    }
    if (key == "lanes") {
      const auto parsed = ParseInt(value.c_str());
      if (!parsed.has_value() || *parsed < 1) {
        error = "invalid lanes '" + value + "' (need an integer >= 1)";
        return false;
      }
      spec.lanes = *parsed;
      continue;
    }
    if (key == "sweep") {
      if (value.empty()) {
        error = "sweep must not be empty";
        return false;
      }
      sweep_spec = value;
      continue;
    }
    if (key == "kind") {
      if (value != "screen" && value != "scrub") {
        error = "unknown kind '" + value + "' (expected screen or scrub)";
        return false;
      }
      spec.kind = value;
      continue;
    }
    if (key == "scrub.budget") {
      const auto parsed = ParseDouble(value.c_str());
      if (!parsed.has_value() || *parsed < 0.0) {
        error = "invalid scrub.budget '" + value + "' (need a fraction >= 0)";
        return false;
      }
      any_scrub_key = true;
      spec.scrub_budget_fraction = *parsed;
      continue;
    }
    if (key == "scrub.horizon_months") {
      const auto parsed = ParseDouble(value.c_str());
      if (!parsed.has_value() || *parsed <= 0.0) {
        error = "invalid scrub.horizon_months '" + value + "'";
        return false;
      }
      any_scrub_key = true;
      spec.scrub_horizon_months = *parsed;
      continue;
    }
    if (key == "scrub.epoch_months") {
      const auto parsed = ParseDouble(value.c_str());
      if (!parsed.has_value() || *parsed <= 0.0) {
        error = "invalid scrub.epoch_months '" + value + "'";
        return false;
      }
      any_scrub_key = true;
      spec.scrub_epoch_months = *parsed;
      continue;
    }
    if (key == "scrub.max_cases") {
      const auto parsed = ParseUint64(value.c_str());
      if (!parsed.has_value()) {
        error = "invalid scrub.max_cases '" + value + "'";
        return false;
      }
      any_scrub_key = true;
      spec.scrub_max_cases = *parsed;
      continue;
    }
    if (key == "scrub.sample_hours") {
      const auto parsed = ParseDouble(value.c_str());
      if (!parsed.has_value() || *parsed < 0.0) {
        error = "invalid scrub.sample_hours '" + value + "'";
        return false;
      }
      any_scrub_key = true;
      spec.scrub_sample_hours = *parsed;
      continue;
    }
    if (key.rfind("scenario.", 0) == 0) {
      any_scenario_key = true;
      std::string assign_error;
      if (!ApplyScenarioAssignment(token.substr(9), base_scenario, assign_error)) {
        error = assign_error;
        return false;
      }
      continue;
    }
    error = "unknown key '" + key + "'";
    return false;
  }
  if (!any_token) {
    error = "empty campaign spec";
    return false;
  }
  if (!sweep_spec.empty() && any_scenario_key) {
    error = "sweep= and scenario.* keys are mutually exclusive";
    return false;
  }
  if (spec.kind == "scrub" && !sweep_spec.empty()) {
    error = "kind=scrub runs one discovery scenario; sweep= is not allowed";
    return false;
  }
  if (spec.kind != "scrub" && any_scrub_key) {
    error = "scrub.* keys require kind=scrub";
    return false;
  }
  if (!CheckStepCount(spec.scrub_horizon_months, spec.scrub_epoch_months, kMaxScrubEpochs,
                      "scrub.epoch_months", error)) {
    return false;
  }
  if (!sweep_spec.empty()) {
    if (!ParseSweepSpec(sweep_spec, spec.scenarios, error)) {
      return false;
    }
  } else {
    if (!CheckRegularRounds(base_scenario.config, error)) {
      return false;
    }
    spec.scenarios.push_back(std::move(base_scenario));
  }
  out = std::move(spec);
  return true;
}

}  // namespace sdc
