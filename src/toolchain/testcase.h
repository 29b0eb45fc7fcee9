// Testcase abstraction for the SDC detection toolchain (Section 2.3).
//
// A testcase is a program that simulates a cloud workload and checks its own results. Like
// the manufacturer's toolchain, each testcase targets a processor feature and ranges in
// complexity from a single instruction in a loop, through library-call kernels, to
// application logic. A testcase executes work in *batches*: one batch runs the kernel once
// at operation granularity through the simulated processor (where defects can corrupt it)
// and stands for `Processor::time_scale()` identical iterations of real execution.
//
// Detected mismatches become SdcRecords -- the unit every downstream analysis consumes.

#ifndef SDC_SRC_TOOLCHAIN_TESTCASE_H_
#define SDC_SRC_TOOLCHAIN_TESTCASE_H_

#include <string>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/fault/defect.h"
#include "src/fault/machine.h"

namespace sdc {

// The paper's three testcase complexity classes (Section 2.3).
enum class TestcaseStyle {
  kInstructionLoop,  // a specific instruction within a loop
  kLibraryCall,      // calls functions in libraries
  kApplicationLogic, // invokes application logic
};

std::string TestcaseStyleName(TestcaseStyle style);

struct TestcaseInfo {
  std::string id;
  Feature target = Feature::kAlu;       // the feature this testcase is designed for
  TestcaseStyle style = TestcaseStyle::kInstructionLoop;
  std::vector<OpKind> ops;              // op kinds the kernel exercises
  std::vector<DataType> types;          // datatypes whose results are checked
  bool multithreaded = false;           // consistency tests need >= 2 cores
  // The op contract every testcase keeps: a batch executes only kinds in `ops`, all of
  // them on the context's lcores, and on a defect-free machine it records nothing. Unless
  // this flag is set, a batch also executes the same count of every kind whatever its
  // inputs, so one batch's op profile stands for every batch of the testcase: a
  // single-threaded plan entry that no defect of the machine can touch runs one real batch
  // and replays that profile for the rest (TestFramework::RunEntry). Set it when the counts
  // follow the data (a sort's comparisons, a search's probes). A new testcase must pass
  // ToolchainContractTest.EveryTestcaseKeepsItsOpContract (tests/toolchain_test.cc).
  bool ops_depend_on_inputs = false;
};

// One observed silent data corruption.
struct SdcRecord {
  std::string testcase_id;
  std::string cpu_id;
  int pcore = 0;
  int lcore = 0;
  SdcType sdc_type = SdcType::kComputation;
  DataType type = DataType::kInt32;  // computation records only
  Word128 expected;                  // bit image of the correct result (computation only)
  Word128 actual;                    // bit image of the observed result (computation only)
  double temperature = 0.0;          // core temperature at detection
  double time_seconds = 0.0;         // simulated processor clock at detection

  Word128 FlipMask() const { return expected ^ actual; }
};

// Execution environment a batch runs in.
struct TestContext {
  FaultyMachine* machine = nullptr;
  std::vector<int> lcores;             // logical cores assigned to this testcase
  Rng* rng = nullptr;                  // deterministic workload-input randomness
  std::vector<SdcRecord>* records = nullptr;  // sink for detected SDCs (may be capped)
  size_t max_records = SIZE_MAX;       // stop *storing* (not counting) past this many
  uint64_t errors_found = 0;           // all mismatches, stored or not
  std::string cpu_id;

  Processor& cpu() { return machine->cpu(); }

  // Appends a computation SDC record for a mismatch observed on `lcore`.
  void RecordComputation(const std::string& testcase_id, int lcore, DataType type,
                         const Word128& expected, const Word128& actual);
  // Appends a consistency SDC record (no meaningful data image).
  void RecordConsistency(const std::string& testcase_id, int lcore);
};

class Testcase {
 public:
  virtual ~Testcase() = default;

  virtual const TestcaseInfo& info() const = 0;

  // Runs one kernel batch on context.lcores, checking results and recording mismatches.
  virtual void RunBatch(TestContext& context) = 0;
};

}  // namespace sdc

#endif  // SDC_SRC_TOOLCHAIN_TESTCASE_H_
