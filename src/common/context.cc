#include "src/common/context.h"

namespace sdc {

EngineContext::EngineContext(const EngineOptions& options)
    : threads_(options.env_overrides ? ResolveThreadCount(options.threads)
                                     : ClampThreadCount(options.threads)),
      simd_(options.env_overrides ? ResolveSimdLevel(options.simd)
                                  : ClampSimdLevel(options.simd)),
      pool_(ExactThreadCount{threads_}),
      metrics_(options.metrics),
      trace_(options.trace),
      event_log_(options.event_log),
      series_(options.series) {}

}  // namespace sdc
