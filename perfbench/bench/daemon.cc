// daemon_1m: a closed loop of client connections to a real sdcd process. Each client
// submits a 1M-processor screen campaign, waits for it, and fetches the result, then
// submits the next; nothing else in the benchmark reaches the daemon's queue, protocol,
// or per-campaign fixed cost.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/bench/fleet.h"
#include "src/daemon/client.h"
#include "src/daemon/spec.h"
#include "src/report/exporters.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kCampaignsPerRound = 8;  // per client: one round is 32 campaigns
constexpr int kSpecs = 8;              // distinct fleets the clients cycle through
constexpr int kCampaignLanes = 2;
constexpr int kDaemonStarts = 21;      // set-up samples: daemon start until it answers
// Every loop runs at least this many rounds; the daemon's memory is read after them.
constexpr size_t kMinRounds = 2;

double UnixNow() {
  return std::chrono::duration<double>(std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// One request on an open connection; false (with `why`) on transport errors and on any
// reply other than `ok ...`.
bool Call(sdc::DaemonClient& client, const std::string& line, std::string& reply,
          std::string& payload, std::string& why) {
  std::string error;
  if (!client.Request(line, reply, payload, error)) {
    why = line + ": " + error;
    return false;
  }
  if (reply.rfind("ok", 0) != 0) {
    why = line + ": " + reply;
    return false;
  }
  return true;
}

// Value of `key=` in a protocol reply line; empty when absent.
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

// An sdcd child process. Destroying one that was not shut down kills and reaps it, so no
// exit path of the benchmark leaves a daemon behind.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, std::string socket, int lanes)
      : socket_(std::move(socket)) {
    // SDC_THREADS would override --lanes inside the daemon; the lane budget is part of
    // the workload.
    std::vector<std::string> env;
    for (char** entry = environ; *entry != nullptr; ++entry) {
      if (std::strncmp(*entry, "SDC_THREADS=", 12) != 0) {
        env.emplace_back(*entry);
      }
    }
    std::vector<std::string> args = {binary, "--socket", socket_, "--lanes",
                                     std::to_string(lanes)};
    std::vector<char*> argv;
    std::vector<char*> envp;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    for (std::string& entry : env) {
      envp.push_back(entry.data());
    }
    envp.push_back(nullptr);
    // The daemon's stdout joins stderr: the benchmark's stdout carries only its record.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), envp.data()) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Polls connect + ping until the daemon answers; false if it exits or stays silent.
  bool WaitReady(double timeout_s) {
    const double deadline = Now() + timeout_s;
    while (pid_ > 0 && Now() < deadline) {
      sdc::DaemonClient client(socket_);
      std::string error;
      std::string reply;
      std::string payload;
      if (client.Connect(error) && client.Request("ping", reply, payload, error) &&
          reply == "ok pong") {
        return true;
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return false;
  }

  // The daemon's peak resident set so far (VmHWM), in MiB; 0 when it cannot be read.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (pid_ > 0 && std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
      }
    }
    return 0.0;
  }

  // Sends `shutdown` and reaps the daemon; "" when it exited 0 and removed its socket.
  std::string Shutdown() {
    std::string why;
    {
      sdc::DaemonClient client(socket_);
      std::string reply;
      std::string payload;
      if (!client.Connect(why) || !Call(client, "shutdown", reply, payload, why)) {
        why = "shutdown: " + why;
      }
    }
    int status = 0;
    pid_t reaped = 0;
    const double deadline = Now() + 60.0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 && Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (reaped != pid_) {
      return "sdcd did not exit after shutdown";  // the destructor kills it
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return "sdcd exited with status " + std::to_string(status);
    }
    if (::access(socket_.c_str(), F_OK) == 0) {
      return "sdcd left its socket behind";
    }
    return why;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// Timeline of one campaign: client-side steady times plus the daemon's own status
// timestamps (Unix seconds, millisecond resolution).
struct CampaignSample {
  int client = 0;
  size_t round = 0;
  double submit_start = 0.0;
  double submit_end = 0.0;
  double wait_end = 0.0;
  double status_end = 0.0;  // traced loops only; == wait_end otherwise
  double result_end = 0.0;
  double submitted_unix = 0.0;
  double started_unix = 0.0;
  double finished_unix = 0.0;
  size_t result_bytes = 0;
  bool ok = false;
  std::string why;
};

struct LoopResult {
  std::vector<CampaignSample> campaigns;
  std::vector<double> round_walls;  // one per round of kClients * kCampaignsPerRound
  std::string error;  // connection-level failure, if any
};

// One submit -> wait -> [status] -> result cycle on an open connection.
CampaignSample RunCampaign(sdc::DaemonClient& client, const std::string& spec,
                           const std::string& expected, bool traced) {
  CampaignSample sample;
  std::string reply;
  std::string payload;
  sample.submit_start = Now();
  if (!Call(client, "submit " + spec, reply, payload, sample.why)) {
    return sample;
  }
  sample.submit_end = Now();
  const std::string id = Field(reply, "id");
  if (!Call(client, "wait " + id, reply, payload, sample.why)) {
    return sample;
  }
  sample.wait_end = Now();
  if (reply != "ok state=done") {
    sample.why = "campaign " + id + " ended " + reply;
    return sample;
  }
  sample.status_end = sample.wait_end;
  if (traced) {
    if (!Call(client, "status " + id, reply, payload, sample.why)) {
      return sample;
    }
    sample.status_end = Now();
    sample.submitted_unix = std::stod(Field(reply, "submitted"));
    sample.started_unix = std::stod(Field(reply, "started"));
    sample.finished_unix = std::stod(Field(reply, "finished"));
  }
  if (!Call(client, "result " + id, reply, payload, sample.why)) {
    return sample;
  }
  sample.result_end = Now();
  sample.result_bytes = payload.size();
  sample.ok = payload == expected;
  if (!sample.ok) {
    sample.why = "campaign " + id + " result differs from the one-shot run of its spec";
  }
  return sample;
}

// kClients connections in a closed loop, in rounds of kCampaignsPerRound campaigns per
// client, until `seconds` have passed (at least kMinRounds rounds). A round ends when every
// client finished its campaigns, so round walls are comparable across runs. `after_min_rounds`
// runs once, between rounds, when kMinRounds rounds are done and the daemon is idle.
LoopResult RunClosedLoop(const std::string& socket, const std::vector<std::string>& specs,
                         const std::vector<std::string>& expected, double seconds,
                         bool traced, const std::function<void()>& after_min_rounds) {
  LoopResult result;
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  int phase = 0;
  double loop_start = 0.0;
  double round_start = 0.0;
  auto on_phase = [&]() noexcept {
    const double now = Now();
    if (phase++ == 0) {
      loop_start = now;
    } else {
      result.round_walls.push_back(now - round_start);
      if (result.round_walls.size() == kMinRounds) {
        after_min_rounds();
      }
      if (failed.load() ||
          (now - loop_start >= seconds && result.round_walls.size() >= kMinRounds)) {
        stop.store(true);
      }
    }
    round_start = Now();
  };
  std::barrier sync(kClients, on_phase);
  std::vector<std::vector<CampaignSample>> per_client(kClients);
  std::vector<std::string> client_errors(kClients);

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      sdc::DaemonClient client(socket);
      if (!client.Connect(client_errors[c])) {
        failed.store(true);
      }
      sync.arrive_and_wait();
      size_t issued = 0;
      for (size_t round = 0; !stop.load(); ++round) {
        for (int j = 0; j < kCampaignsPerRound && !failed.load(); ++j) {
          const size_t spec = (c + kClients * issued++) % specs.size();
          CampaignSample sample;
          try {
            sample = RunCampaign(client, specs[spec], expected[spec], traced);
          } catch (const std::exception& e) {
            sample.why = std::string("malformed reply: ") + e.what();
          }
          sample.client = c;
          sample.round = round;
          if (!sample.ok) {
            failed.store(true);  // any failure ends the loop after this round
          }
          per_client[c].push_back(std::move(sample));
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int c = 0; c < kClients; ++c) {
    for (CampaignSample& sample : per_client[c]) {
      result.campaigns.push_back(std::move(sample));
    }
    if (!client_errors[c].empty()) {
      result.error = "client " + std::to_string(c) + ": " + client_errors[c];
    }
  }
  return result;
}

template <typename Value>
std::vector<double> Collect(const std::vector<CampaignSample>& campaigns, Value value) {
  std::vector<double> values;
  for (const CampaignSample& sample : campaigns) {
    if (sample.ok) {
      values.push_back(value(sample));
    }
  }
  return values;
}

}  // namespace

void RunDaemonWorkload(const Options& options, Record& record) {
  const uint64_t processors = options.tiny ? 50'000 : 1'000'000;
  std::vector<std::string> specs;
  for (int k = 0; k < kSpecs; ++k) {
    specs.push_back("name=bench" + std::to_string(k) + " processors=" +
                    std::to_string(processors) + " seed=" +
                    std::to_string(20210101 + 1000 * options.seed + k) +
                    " lanes=" + std::to_string(kCampaignLanes));
  }

  // One-shot results: each spec parsed exactly as the daemon parses it and run as a
  // direct in-process fused pass on a context with the campaign's lanes. The same passes,
  // timed, are the baseline of daemon.overhead_ms.
  FleetEngine direct(kCampaignLanes);
  std::vector<std::string> expected;
  std::vector<double> direct_walls;
  FleetSpec first_fleet;
  for (const std::string& text : specs) {
    sdc::CampaignSpec campaign;
    std::string error;
    if (!sdc::ParseCampaignSpec(text, campaign, error)) {
      record.Attempt(false, "spec '" + text + "': " + error);
      return;
    }
    FleetSpec fleet;
    fleet.processors = campaign.processors;
    fleet.fleet_seed = campaign.seed;
    for (const sdc::SweepScenario& scenario : campaign.scenarios) {
      fleet.scenarios.push_back(scenario.config);
    }
    std::string bytes;
    for (int rep = 0; rep < 3; ++rep) {
      const PassResult pass = RunStreamPass(direct.pipeline, direct.context, fleet);
      direct_walls.push_back(pass.wall_s);
      std::ostringstream out;
      sdc::WriteScreeningStatsJson(out, pass.stats.front());
      bytes = out.str();
    }
    expected.push_back(options.corrupt_digest ? bytes + " " : bytes);
    if (first_fleet.scenarios.empty()) {
      first_fleet = fleet;
    }
  }

  // Set-up: daemon start until it answers on its socket, several times; every daemon
  // but the last is shut down again, and each shutdown must be clean.
  const std::string socket = options.out_dir + "/sdcd-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<DaemonProcess> daemon;
  uint64_t started = 0;
  uint64_t clean_exits = 0;
  const auto shut_down = [&] {
    if (daemon != nullptr) {
      const std::string why = daemon->Shutdown();
      record.Attempt(why.empty(), "daemon lifecycle: " + why);
      clean_exits += why.empty() ? 1 : 0;
      daemon.reset();
    }
  };
  bool ready = true;
  const double setup_s = SetupSeconds(options.tiny ? 2 : kDaemonStarts, 1, shut_down, [&](int) {
    daemon = std::make_unique<DaemonProcess>(options.sdcd, socket, kLanes);
    ++started;
    ready = ready && daemon->WaitReady(30.0);
  }, record);
  if (!ready) {
    record.Attempt(false, "sdcd at " + options.sdcd + " never answered on " + socket);
    return;
  }

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  // Memory at a fixed amount of work: sdcd keeps every finished campaign until it shuts
  // down, so its peak at the end of a time-bounded loop would count campaigns served.
  double peak_rss_mb = 0.0;
  const LoopResult plain = RunClosedLoop(socket, specs, expected, budget, false,
                                         [&] { peak_rss_mb = daemon->PeakRssMb(); });
  const double unix_offset = UnixNow() - Now();
  const LoopResult traced = options.trace
                                ? RunClosedLoop(socket, specs, expected, budget, true, [] {})
                                : LoopResult{};
  shut_down();
  record.Sample("sdcd_started", started);
  record.Sample("sdcd_clean_exits", clean_exits);

  for (const LoopResult* loop : {&plain, &traced}) {
    if (!loop->error.empty()) {
      record.Attempt(false, loop->error);
    }
    for (const CampaignSample& sample : loop->campaigns) {
      record.Attempt(sample.ok, sample.why);
    }
  }
  record.Sample("campaigns", plain.campaigns.size() + traced.campaigns.size());
  record.Sample("rounds", plain.round_walls.size() + traced.round_walls.size());

  if (!options.trace) {
    record.Attempt(peak_rss_mb > 0.0, "could not read sdcd's VmHWM");
    const auto latency_of = [](const CampaignSample& s) {
      return (s.result_end - s.submit_start) * 1e3;
    };
    const std::vector<double> latency_ms = Collect(plain.campaigns, latency_of);
    // The tail is taken per round and its median reported: a round that shares the host
    // with another job moves one sample, not the whole percentile.
    std::vector<std::vector<CampaignSample>> rounds(plain.round_walls.size());
    for (const CampaignSample& sample : plain.campaigns) {
      rounds[sample.round].push_back(sample);
    }
    std::vector<double> round_p95_ms;
    for (const std::vector<CampaignSample>& round : rounds) {
      round_p95_ms.push_back(Percentile(Collect(round, latency_of), 0.95));
    }
    const double campaigns_per_s = static_cast<double>(plain.campaigns.size()) / Sum(plain.round_walls);
    record.Add("wall_s", Mean(plain.round_walls), "s");
    record.Add("proc_per_s", campaigns_per_s * static_cast<double>(processors), "1/s");
    record.Add("campaigns_per_s", campaigns_per_s, "1/s");
    record.Add("latency_p50_ms", Median(latency_ms), "ms");
    record.Add("latency_p95_ms", Median(round_p95_ms), "ms");
    record.Add("peak_rss_mb", peak_rss_mb, "MB");
    record.Add("setup_s", setup_s, "s");
    return;
  }

  // Queue, run and notify times come from the daemon's `status` stamps, which have
  // millisecond resolution: their means resolve well below that, their medians do not.
  const auto& runs = traced.campaigns;
  const double run_ms = Mean(Collect(runs, [](const CampaignSample& s) {
    return (s.finished_unix - s.started_unix) * 1e3;
  }));
  record.Add("daemon.submit_ms", Median(Collect(runs, [](const CampaignSample& s) {
               return (s.submit_end - s.submit_start) * 1e3;
             })),
             "ms");
  record.Add("daemon.queue_wait_ms", Mean(Collect(runs, [](const CampaignSample& s) {
               return (s.started_unix - s.submitted_unix) * 1e3;
             })),
             "ms");
  record.Add("daemon.run_ms", run_ms, "ms");
  record.Add("daemon.notify_ms", Mean(Collect(runs, [&](const CampaignSample& s) {
               return (s.wait_end + unix_offset - s.finished_unix) * 1e3;
             })),
             "ms");
  record.Add("daemon.result_ms", Median(Collect(runs, [](const CampaignSample& s) {
               return (s.result_end - s.status_end) * 1e3;
             })),
             "ms");
  record.Add("daemon.result_bytes", Median(Collect(runs, [](const CampaignSample& s) {
               return static_cast<double>(s.result_bytes);
             })),
             "bytes");
  record.Add("daemon.overhead_ms", run_ms - Median(direct_walls) * 1e3, "ms");
  record.Add("trace.overhead", Mean(traced.round_walls) / Mean(plain.round_walls), "ratio");

  SpanLog spans;
  for (const CampaignSample& sample : runs) {
    if (!sample.ok) {
      continue;
    }
    const auto steady = [&](double unix_seconds) { return unix_seconds - unix_offset; };
    const uint64_t group = spans.NewGroup();
    const int lane = sample.client;
    const uint64_t campaign =
        spans.Add("daemon.campaign", 0, group, lane, sample.submit_start, sample.result_end);
    spans.Add("daemon.submit", campaign, group, lane, sample.submit_start, sample.submit_end);
    spans.Add("daemon.queue", campaign, group, lane, steady(sample.submitted_unix),
              steady(sample.started_unix));
    spans.Add("daemon.run", campaign, group, lane, steady(sample.started_unix),
              steady(sample.finished_unix));
    spans.Add("daemon.notify", campaign, group, lane, steady(sample.finished_unix),
              sample.wait_end);
    spans.Add("daemon.status", campaign, group, lane, sample.wait_end, sample.status_end);
    spans.Add("daemon.result", campaign, group, lane, sample.status_end, sample.result_end);
  }
  // The fleet layers of one campaign's pass, measured on a direct pass of its spec.
  sdc::EngineContext wide(ContextOptions(kLanes));
  MeasureFleetLayers(direct.pipeline, wide, first_fleet, spans, record);
  WriteTrace(options, spans, record);
}

}  // namespace perfbench
