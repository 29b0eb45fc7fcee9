// perfbench: one run of one benchmark workload (perfbench/README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//             [--sdcd PATH] [--tiny] [--corrupt-digest]
//
// Prints one JSON record on stdout: the workload's end-to-end metrics (--trace 0) or its
// per-layer metrics plus the tracing overhead (--trace 1), the host fingerprint, and the
// correctness ledger. Exits 0 when every checked output was correct, 1 when any was not,
// and 2 on a usage error.

#include <exception>
#include <iostream>
#include <string>

#include "perfbench/bench/perfbench.h"
#include "src/common/parse.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload screen_100m|sweep_k8_10m|scrub_100k|daemon_1m\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n"
               "                 [--sdcd PATH] [--tiny] [--corrupt-digest]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (flag == "--corrupt-digest") {
      options.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(flag + " needs an operand");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const auto seed = sdc::ParseUint64(value);
      if (!seed.has_value()) {
        return Usage("bad --seed '" + value + "'");
      }
      options.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = sdc::ParseDouble(value);
      if (!seconds.has_value() || *seconds <= 0.0) {
        return Usage("bad --seconds '" + value + "'");
      }
      options.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("bad --trace '" + value + "'");
      }
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--sdcd") {
      options.sdcd = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }

  Record record;
  try {
    if (options.workload == "screen_100m" || options.workload == "sweep_k8_10m") {
      RunScreenWorkload(options, record);
    } else if (options.workload == "scrub_100k") {
      RunScrubWorkload(options, record);
    } else if (options.workload == "daemon_1m") {
      RunDaemonWorkload(options, record);
    } else {
      return Usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    record.Attempt(false, std::string("run aborted: ") + e.what());
  }
  std::cout << record.ToJson(options) << std::endl;
  return record.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
