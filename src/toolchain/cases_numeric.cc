// Numerical application kernels: FFT, LU decomposition, stencil iteration, Monte Carlo
// estimation, sorting, and binary search. Each computes a golden result natively, routes
// the datapath through the simulated processor, and checks the routed results -- several
// with realistic error propagation (a corrupted butterfly taints downstream stages).

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/toolchain/cases.h"

namespace sdc {
namespace {

class FftCase : public TestcaseBase {
 public:
  FftCase(TestcaseInfo info, int size) : TestcaseBase(std::move(info)), size_(size) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<double> real_golden(static_cast<size_t>(size_));
    std::vector<double> imag_golden(static_cast<size_t>(size_), 0.0);
    for (auto& value : real_golden) {
      value = context.rng->NextDouble() * 2.0 - 1.0;
    }
    std::vector<double> real_routed = real_golden;
    std::vector<double> imag_routed = imag_golden;
    Transform(real_golden, imag_golden, nullptr, 0);
    Transform(real_routed, imag_routed, &cpu, lcore);
    for (int i = 0; i < size_; ++i) {
      if (real_routed[i] != real_golden[i]) {
        context.RecordComputation(info_.id, lcore, DataType::kFloat64,
                                  BitsOfDouble(real_golden[i]),
                                  BitsOfDouble(real_routed[i]));
      }
      if (imag_routed[i] != imag_golden[i]) {
        context.RecordComputation(info_.id, lcore, DataType::kFloat64,
                                  BitsOfDouble(imag_golden[i]),
                                  BitsOfDouble(imag_routed[i]));
      }
    }
  }

 private:
  // Iterative radix-2 Cooley-Tukey. With cpu == nullptr this is the golden reference;
  // otherwise every butterfly output is routed (and corruption propagates onward).
  void Transform(std::vector<double>& real, std::vector<double>& imag, Processor* cpu,
                 int lcore) const {
    const int n = size_;
    for (int i = 1, j = 0; i < n; ++i) {  // bit reversal
      int bit = n >> 1;
      for (; j & bit; bit >>= 1) {
        j ^= bit;
      }
      j ^= bit;
      if (i < j) {
        std::swap(real[i], real[j]);
        std::swap(imag[i], imag[j]);
      }
    }
    for (int length = 2; length <= n; length <<= 1) {
      const double angle = -2.0 * M_PI / length;
      for (int block = 0; block < n; block += length) {
        for (int k = 0; k < length / 2; ++k) {
          const double wr = std::cos(angle * k);
          const double wi = std::sin(angle * k);
          const int top = block + k;
          const int bottom = block + k + length / 2;
          double tr = real[bottom] * wr - imag[bottom] * wi;
          double ti = real[bottom] * wi + imag[bottom] * wr;
          double new_top_r = real[top] + tr;
          double new_top_i = imag[top] + ti;
          double new_bot_r = real[top] - tr;
          double new_bot_i = imag[top] - ti;
          if (cpu != nullptr) {
            new_top_r = cpu->ExecuteF64(lcore, OpKind::kFpFma, new_top_r);
            new_top_i = cpu->ExecuteF64(lcore, OpKind::kFpFma, new_top_i);
            new_bot_r = cpu->ExecuteF64(lcore, OpKind::kFpFma, new_bot_r);
            new_bot_i = cpu->ExecuteF64(lcore, OpKind::kFpFma, new_bot_i);
          }
          real[top] = new_top_r;
          imag[top] = new_top_i;
          real[bottom] = new_bot_r;
          imag[bottom] = new_bot_i;
        }
      }
    }
  }

  int size_;
};

class LuDecompositionCase : public TestcaseBase {
 public:
  LuDecompositionCase(TestcaseInfo info, int dimension)
      : TestcaseBase(std::move(info)), dimension_(dimension) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    const int n = dimension_;
    std::vector<double> matrix(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        matrix[i * n + j] = context.rng->NextDouble() * 2.0 - 1.0;
      }
      matrix[i * n + i] += 4.0;  // diagonal dominance: no pivoting needed
    }
    std::vector<double> golden = matrix;
    std::vector<double> routed = matrix;
    Decompose(golden, nullptr, 0);
    Decompose(routed, &cpu, lcore);
    for (int i = 0; i < n * n; ++i) {
      if (routed[i] != golden[i]) {
        context.RecordComputation(info_.id, lcore, DataType::kFloat64,
                                  BitsOfDouble(golden[i]), BitsOfDouble(routed[i]));
      }
    }
  }

 private:
  void Decompose(std::vector<double>& a, Processor* cpu, int lcore) const {
    const int n = dimension_;
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) {
        double factor = a[i * n + k] / a[k * n + k];
        if (cpu != nullptr) {
          factor = cpu->ExecuteF64(lcore, OpKind::kFpDiv, factor);
        }
        a[i * n + k] = factor;
        for (int j = k + 1; j < n; ++j) {
          double updated = a[i * n + j] - factor * a[k * n + j];
          if (cpu != nullptr) {
            updated = cpu->ExecuteF64(lcore, OpKind::kFpFma, updated);
          }
          a[i * n + j] = updated;
        }
      }
    }
  }

  int dimension_;
};

class StencilCase : public TestcaseBase {
 public:
  StencilCase(TestcaseInfo info, int cells, int steps)
      : TestcaseBase(std::move(info)), cells_(cells), steps_(steps) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<double> golden(static_cast<size_t>(cells_));
    for (auto& value : golden) {
      value = context.rng->NextDouble();
    }
    std::vector<double> routed = golden;
    std::vector<double> golden_next(golden.size());
    std::vector<double> routed_next(routed.size());
    constexpr double kAlpha = 0.1;
    for (int step = 0; step < steps_; ++step) {
      for (int i = 0; i < cells_; ++i) {
        const int left = i == 0 ? cells_ - 1 : i - 1;
        const int right = i == cells_ - 1 ? 0 : i + 1;
        golden_next[i] =
            golden[i] + kAlpha * (golden[left] - 2.0 * golden[i] + golden[right]);
        const double update =
            routed[i] + kAlpha * (routed[left] - 2.0 * routed[i] + routed[right]);
        routed_next[i] = cpu.ExecuteF64(lcore, OpKind::kFpFma, update);
      }
      golden.swap(golden_next);
      routed.swap(routed_next);
    }
    for (int i = 0; i < cells_; ++i) {
      if (routed[i] != golden[i]) {
        context.RecordComputation(info_.id, lcore, DataType::kFloat64,
                                  BitsOfDouble(golden[i]), BitsOfDouble(routed[i]));
      }
    }
  }

 private:
  int cells_;
  int steps_;
};

class MonteCarloCase : public TestcaseBase {
 public:
  MonteCarloCase(TestcaseInfo info, int samples)
      : TestcaseBase(std::move(info)), samples_(samples) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    // Pi estimation: the distance computation runs on the processor; the host recomputes
    // the golden distance per sample, so any corrupted in/out classification is caught.
    for (int i = 0; i < samples_; ++i) {
      const double x = context.rng->NextDouble();
      const double y = context.rng->NextDouble();
      const double golden = x * x + y * y;
      const double routed = cpu.ExecuteF64(lcore, OpKind::kFpMul, golden);
      if (routed != golden) {
        context.RecordComputation(info_.id, lcore, DataType::kFloat64,
                                  BitsOfDouble(golden), BitsOfDouble(routed));
      }
    }
  }

 private:
  int samples_;
};

class SortCheckCase : public TestcaseBase {
 public:
  SortCheckCase(TestcaseInfo info, int elements)
      : TestcaseBase(std::move(info)), elements_(elements) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<int32_t> values(static_cast<size_t>(elements_));
    for (auto& value : values) {
      value = static_cast<int32_t>(context.rng->NextInRange(-1000000, 1000000));
    }
    // Insertion sort whose comparison verdicts run on the processor: a corrupted compare
    // result leaves elements out of order.
    std::vector<int32_t> sorted = values;
    for (int i = 1; i < elements_; ++i) {
      const int32_t key = sorted[i];
      int j = i - 1;
      while (j >= 0) {
        const int32_t golden_cmp = sorted[j] > key ? 1 : 0;
        const int32_t cmp = cpu.ExecuteI32(lcore, OpKind::kCompare, golden_cmp);
        if (cmp == 0) {
          break;
        }
        sorted[j + 1] = sorted[j];
        --j;
      }
      sorted[j + 1] = key;
    }
    // Verify against the host's sort; report one record per misplaced position.
    std::vector<int32_t> golden = values;
    std::sort(golden.begin(), golden.end());
    for (int i = 0; i < elements_; ++i) {
      if (sorted[i] != golden[i]) {
        context.RecordComputation(info_.id, lcore, DataType::kInt32,
                                  BitsOfInt32(golden[i]), BitsOfInt32(sorted[i]));
      }
    }
  }

 private:
  int elements_;
};

class BinarySearchCase : public TestcaseBase {
 public:
  BinarySearchCase(TestcaseInfo info, int elements, int queries)
      : TestcaseBase(std::move(info)), elements_(elements), queries_(queries) {}

  void RunBatch(TestContext& context) override {
    Processor& cpu = context.cpu();
    const int lcore = context.lcores.front();
    std::vector<int32_t> values(static_cast<size_t>(elements_));
    for (int i = 0; i < elements_; ++i) {
      values[i] = i * 7;
    }
    for (int q = 0; q < queries_; ++q) {
      const auto target = static_cast<int32_t>(
          context.rng->NextBelow(static_cast<uint64_t>(elements_)) * 7);
      int lo = 0;
      int hi = elements_ - 1;
      int found = -1;
      while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        const int32_t golden_cmp =
            values[mid] < target ? -1 : (values[mid] > target ? 1 : 0);
        const int32_t cmp = cpu.ExecuteI32(lcore, OpKind::kCompare, golden_cmp);
        if (cmp == 0) {
          found = mid;
          break;
        }
        if (cmp < 0) {
          lo = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
      const int golden_index = target / 7;
      if (found != golden_index) {
        context.RecordComputation(info_.id, lcore, DataType::kInt32,
                                  BitsOfInt32(golden_index), BitsOfInt32(found));
      }
    }
  }

 private:
  int elements_;
  int queries_;
};

}  // namespace

std::unique_ptr<Testcase> MakeFftCase(int size) {
  TestcaseInfo info;
  info.id = "app.fft.f64.n" + std::to_string(size);
  info.target = Feature::kFpu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kFpFma};
  info.types = {DataType::kFloat64};
  return std::make_unique<FftCase>(std::move(info), size);
}

std::unique_ptr<Testcase> MakeLuDecompositionCase(int dimension) {
  TestcaseInfo info;
  info.id = "app.lu.f64.n" + std::to_string(dimension);
  info.target = Feature::kFpu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kFpDiv, OpKind::kFpFma};
  info.types = {DataType::kFloat64};
  return std::make_unique<LuDecompositionCase>(std::move(info), dimension);
}

std::unique_ptr<Testcase> MakeStencilCase(int cells, int steps) {
  TestcaseInfo info;
  info.id = "app.stencil.heat.n" + std::to_string(cells) + ".s" + std::to_string(steps);
  info.target = Feature::kFpu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kFpFma};
  info.types = {DataType::kFloat64};
  return std::make_unique<StencilCase>(std::move(info), cells, steps);
}

std::unique_ptr<Testcase> MakeMonteCarloCase(int samples) {
  TestcaseInfo info;
  info.id = "app.montecarlo.pi.n" + std::to_string(samples);
  info.target = Feature::kFpu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kFpMul};
  info.types = {DataType::kFloat64};
  return std::make_unique<MonteCarloCase>(std::move(info), samples);
}

std::unique_ptr<Testcase> MakeSortCheckCase(int elements) {
  TestcaseInfo info;
  info.id = "app.sort.insertion.n" + std::to_string(elements);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kCompare};
  info.types = {DataType::kInt32};
  info.ops_depend_on_inputs = true;  // comparisons until each key settles
  return std::make_unique<SortCheckCase>(std::move(info), elements);
}

std::unique_ptr<Testcase> MakeBinarySearchCase(int elements, int queries) {
  TestcaseInfo info;
  info.id = "app.bsearch.n" + std::to_string(elements) + ".q" + std::to_string(queries);
  info.target = Feature::kAlu;
  info.style = TestcaseStyle::kApplicationLogic;
  info.ops = {OpKind::kCompare};
  info.types = {DataType::kInt32};
  info.ops_depend_on_inputs = true;  // probes until each target is found
  return std::make_unique<BinarySearchCase>(std::move(info), elements, queries);
}

}  // namespace sdc
