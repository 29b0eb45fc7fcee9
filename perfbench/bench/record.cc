#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "perfbench/bench/perfbench.h"
#include "src/common/parallel.h"
#include "src/common/simd.h"
#include "src/report/exporters.h"
#include "src/report/json_writer.h"
#include "src/telemetry/trace.h"

namespace perfbench {
namespace {

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Chrome trace lanes for benchmark spans start here, clear of the engine's own tracks.
constexpr int kLaneTrackBase = 100;

}  // namespace

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

void Record::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Record::Attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Bounded: the first failures explain the run; the count says how many there were.
    if (failures_.size() < 16) {
      failures_.push_back(why);
    }
  }
}

std::string Record::ToJson(const Options& options) const {
  std::ostringstream out;
  sdc::JsonWriter json(out, /*pretty=*/false);
  json.BeginObject();
  json.KeyValue("workload", options.workload);
  json.KeyValue("seed", options.seed);
  json.KeyValue("trace", options.trace);
  json.KeyValue("tiny", options.tiny);
  json.KeyValue("seconds", options.seconds);
  json.Key("fingerprint").BeginObject();
  json.KeyValue("nproc", sdc::HardwareThreads());
  json.KeyValue("simd", sdc::SimdLevelName(sdc::ResolveSimdLevel(sdc::SimdLevel::kAuto)));
  json.KeyValue("compiler", CompilerName());
  json.KeyValue("build_type", PERFBENCH_BUILD_TYPE);
  json.KeyValue("lanes", kLanes);
  json.EndObject();
  json.KeyValue("attempted", attempted_);
  json.KeyValue("failed", failed_);
  json.Key("failures").BeginArray();
  for (const std::string& failure : failures_) {
    json.Value(failure);
  }
  json.EndArray();
  json.Key("metrics").BeginObject();
  for (const Metric& metric : metrics_) {
    json.Key(metric.name).BeginObject();
    json.KeyValue("value", metric.value);
    json.KeyValue("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.Key("samples").BeginObject();
  for (const auto& [name, count] : samples_) {
    json.KeyValue(name, count);
  }
  json.EndObject();
  json.Key("series").BeginObject();
  for (const auto& [name, values] : series_) {
    json.Key(name).BeginArray();
    for (double value : values) {
      json.Value(value);
    }
    json.EndArray();
  }
  json.EndObject();
  json.Key("self_s").BeginObject();
  for (const auto& [name, seconds] : self_s_) {
    json.KeyValue(name, seconds);
  }
  json.EndObject();
  json.Key("notes").BeginObject();
  for (const auto& [key, value] : notes_) {
    json.KeyValue(key, value);
  }
  json.EndObject();
  json.EndObject();
  return out.str();
}

uint64_t SpanLog::Add(std::string name, uint64_t parent, uint64_t group, int lane,
                      double start, double end) {
  const uint64_t id = spans_.size() + 1;
  // Spans built from the daemon's millisecond timestamps can cross the client's clock
  // by up to half a millisecond; such a span is empty, never negative.
  spans_.push_back({id, parent, group, lane, start, std::max(start, end), std::move(name)});
  return id;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    double covered = 0.0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_begin = 0.0;
      double run_end = -1.0;
      for (const auto& [raw_begin, raw_end] : intervals) {
        const double begin = std::max(raw_begin, span.start);
        const double end = std::min(raw_end, span.end);
        if (end <= begin) {
          continue;
        }
        if (begin > run_end) {
          covered += std::max(0.0, run_end - run_begin);
          run_begin = begin;
          run_end = end;
        } else {
          run_end = std::max(run_end, end);
        }
      }
      covered += std::max(0.0, run_end - run_begin);
    }
    self[span.name] += (span.end - span.start) - covered;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  sdc::TraceSnapshot snapshot;
  snapshot.host.reserve(spans_.size());
  for (const Span& span : spans_) {
    sdc::TraceEvent event = sdc::MakeTraceSpan(span.name, "perfbench",
                                               kLaneTrackBase + span.lane,
                                               span.start * 1e6, (span.end - span.start) * 1e6);
    event.num_args = {{"id", static_cast<double>(span.id)},
                      {"parent", static_cast<double>(span.parent)},
                      {"group", static_cast<double>(span.group)}};
    snapshot.host.push_back(std::move(event));
  }
  std::ofstream out(path);
  sdc::WriteTraceJson(out, snapshot, /*include_host=*/true);
  out << "\n";
  return static_cast<bool>(out);
}

void WriteTrace(const Options& options, const SpanLog& spans, Record& record) {
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  record.Attempt(spans.WriteChromeJson(path), "could not write " + path);
  record.Note("trace_file", path);
  record.SetSelfTimes(spans.SelfSeconds());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<size_t>(position);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double value : values) {
    total += value;
  }
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double SetupSeconds(int batches, int per_batch, const std::function<void()>& teardown,
                    const std::function<void(int)>& build, Record& record) {
  std::vector<double> samples;
  for (int batch = 0; batch < batches; ++batch) {
    teardown();
    const double start = Now();
    for (int i = 0; i < per_batch; ++i) {
      build(i);
    }
    samples.push_back((Now() - start) / per_batch);
  }
  record.Series("setup_s", samples);
  return Median(samples);
}

}  // namespace perfbench
