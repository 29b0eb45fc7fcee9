// Campaign and scenario specifications shared by the sdcd daemon protocol and the
// sdcctl command line (docs/daemon.md).
//
// A *scenario* selects one ScreeningConfig (seed, cadence, stage parameters); a
// *campaign* is what sdcd schedules: a fleet (processor count + generation seed), a lane
// budget, and one or more scenarios screened against that fleet in a single fused
// streaming pass. Both are written as whitespace-separated `key=value` tokens, parsed
// with the same strict discipline as the rest of the CLI (src/common/parse.h): unknown
// keys, malformed numbers, empty specs, and out-of-range values are errors the caller
// maps to exit status 2 (command line) or an `err spec` reply (socket protocol) -- never
// silent defaults.

#ifndef SDC_SRC_DAEMON_SPEC_H_
#define SDC_SRC_DAEMON_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/pipeline.h"

namespace sdc {

// One sweep scenario: a display name plus the screening config it selects.
struct SweepScenario {
  std::string name;
  ScreeningConfig config;
};

// Maps a stage name from a scenario key (stage.<name>.<field>) to its index;
// -1 for unknown names. Accepts both "reinstall" and "re-install".
int StageIndexOf(const std::string& name);

// Applies one `key=value` token to a scenario. Keys: name, seed, period_months,
// horizon_months, regular_groups, stage.<factory|datacenter|reinstall|regular>
// .<seconds|temp|catch>. Returns false and fills `error` on any malformed token.
bool ApplyScenarioAssignment(const std::string& token, SweepScenario& scenario,
                             std::string& error);

// The parsers check the library's step limits (kMaxRegularRounds in src/fleet/pipeline.h,
// kMaxScrubEpochs in src/scrub/scrubber.h) once a spec's keys are all applied, so a
// hostile cadence is a usage error (docs/daemon.md) instead of an exception from the run.

// Expands a sweep operand into scenarios. `seeds:K` yields K scenarios varying only the
// screening seed (base 77 + k); anything else names a scenario file, one scenario per
// non-comment line of key=value tokens, checked against kMaxRegularRounds once the line's
// keys are all applied. At most kMaxSweepScenarios scenarios.
inline constexpr size_t kMaxSweepScenarios = 256;
bool ParseSweepSpec(const std::string& spec, std::vector<SweepScenario>& out,
                    std::string& error);

// What sdcd runs: a fleet, a lane budget, and the scenarios screened against it.
struct CampaignSpec {
  std::string name = "campaign";
  uint64_t processors = 100000;  // fleet size
  uint64_t seed = 20210101;      // fleet generation seed
  int lanes = 1;                 // pool lanes requested (clamped to the daemon budget)
  std::vector<SweepScenario> scenarios;  // at least one after parsing

  // Campaign kind: "screen" (the fused generate->screen pass, the default) or "scrub"
  // (discovery plus the budgeted FleetScrubber epoch loop; docs/scrubbing.md). A scrub
  // campaign screens with its single scenario's config to discover the escapes and
  // rejects sweep=; its progress ledger counts epochs instead of stream shards and
  // cancellation lands at the next epoch boundary.
  std::string kind = "screen";
  // Scrub-kind knobs (scrub.* keys; rejected when kind=screen).
  double scrub_budget_fraction = 1e-5;  // scrub.budget
  double scrub_horizon_months = 12.0;   // scrub.horizon_months
  double scrub_epoch_months = 1.0;      // scrub.epoch_months
  uint64_t scrub_max_cases = 48;        // scrub.max_cases (0 = full plans)
  double scrub_sample_hours = 0.05;     // scrub.sample_hours (workload sampling)
};

// Parses one campaign spec line of whitespace-separated key=value tokens:
//   name=<id> processors=<N> seed=<S> lanes=<L> kind=<screen|scrub>
//   scenario.<key>=<v>   (screening knobs of the single default scenario)
//   sweep=<seeds:K|file> (multi-scenario campaign; excludes scenario.* keys)
//   scrub.<budget|horizon_months|epoch_months|max_cases|sample_hours>=<v>
//                        (kind=scrub only; sweep= is rejected for scrub campaigns)
// Every key is optional, but the line must contain at least one token: an empty or
// blank spec -- the truncated-submit case on the socket -- is an error, not a default
// campaign. Keys come in any order, so the step limits (kMaxRegularRounds,
// kMaxScrubEpochs) are checked after the last token. Returns false and fills `error` on
// any violation.
bool ParseCampaignSpec(const std::string& text, CampaignSpec& out, std::string& error);

}  // namespace sdc

#endif  // SDC_SRC_DAEMON_SPEC_H_
