#include "src/farron/protection.h"

#include <utility>

#include "src/common/rng.h"
#include "src/farron/session.h"

namespace sdc {

ProtectionReport SimulateProtectedWorkload(Farron& farron, FaultyMachine& machine,
                                           const TestSuite& suite, const WorkloadSpec& spec,
                                           double hours, bool protect) {
  SessionOptions options;
  options.protect = protect;
  ProtectionSession session(&farron, &machine, &suite, spec, Rng(spec.seed),
                            std::move(options));
  session.BeginWorkload(hours);
  // Any quantum works -- the session contract makes the cut invisible; 15 simulated
  // minutes keeps the loop visibly reentrant without measurable overhead.
  while (!session.workload_done()) {
    session.Step(900.0);
  }
  return session.FinishWorkload();
}

}  // namespace sdc
