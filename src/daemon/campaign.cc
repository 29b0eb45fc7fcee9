#include "src/daemon/campaign.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "src/common/context.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

// Thrown by the guard consumer to stop a pass at a shard boundary; ParallelStream drains
// (skips) the remaining shards and rethrows out of Drive.
struct CampaignCancelledError {};

// First consumer of the campaign's stream: checks the cancel flag and counts progress.
// Runs before the screeners on every shard, so a cancelled campaign stops paying for
// screening (and, via the drain, generation) as soon as the flag is visible.
class CampaignGuard : public ShardConsumer {
 public:
  CampaignGuard(const std::atomic<bool>* cancel, std::atomic<uint64_t>* shards_done)
      : cancel_(cancel), shards_done_(shards_done) {}

  void ConsumeShard(const FleetShard& /*shard*/) override {
    if (cancel_->load(std::memory_order_relaxed)) {
      throw CampaignCancelledError{};
    }
    shards_done_->fetch_add(1, std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* cancel_;
  std::atomic<uint64_t>* shards_done_;
};

// Live detection feed for the status surface: sums each shard's scenario-0 detections
// into the campaign's atomic as shards complete. Arrival order is schedule-dependent,
// but the count is monotonic and exact once the pass ends -- a status gauge, not part of
// the determinism contract (which the end-of-pass stats and series carry).
class DetectionTally : public ShardOutcomeObserver {
 public:
  explicit DetectionTally(std::atomic<uint64_t>* detections) : detections_(detections) {}

  void ObserveShard(const FleetShard& /*shard*/,
                    const ScreeningStats& shard_stats) override {
    detections_->fetch_add(shard_stats.total_detected(), std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t>* detections_;
};

// Host wall clock for the status timestamps: seconds since the Unix epoch.
double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string CampaignStateName(CampaignState state) {
  switch (state) {
    case CampaignState::kQueued:
      return "queued";
    case CampaignState::kRunning:
      return "running";
    case CampaignState::kDone:
      return "done";
    case CampaignState::kCancelled:
      return "cancelled";
    case CampaignState::kFailed:
      return "failed";
  }
  return "?";
}

CampaignManager::CampaignManager(int total_lanes, size_t event_capacity)
    : total_lanes_(std::max(total_lanes, 1)), events_(event_capacity) {}

double CampaignManager::HostSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_)
      .count();
}

void CampaignManager::RecordTransitionLocked(EventKind kind, const Campaign& campaign) {
  const double now = HostSeconds();
  events_.Record(kind, now, campaign.spec.name, /*pcore=*/-1,
                 static_cast<double>(campaign.id));
  // Occupancy trajectory, one point per transition. Wall clock, so it lives in the
  // recorder's host section and stays outside the determinism contract.
  host_series_.Append("daemon.queue_depth", SeriesClock::kHost, now,
                      static_cast<double>(admit_queue_.size()));
  host_series_.Append("daemon.lanes_in_use", SeriesClock::kHost, now,
                      static_cast<double>(lanes_in_use_));
}

CampaignManager::~CampaignManager() { Shutdown(); }

CampaignManager::Campaign* CampaignManager::FindLocked(uint64_t id) const {
  // Ids are assigned densely from 1 in submission order.
  if (id == 0 || id > campaigns_.size()) {
    return nullptr;
  }
  return campaigns_[static_cast<size_t>(id - 1)].get();
}

uint64_t CampaignManager::Submit(CampaignSpec spec) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutting_down_) {
    return 0;
  }
  auto campaign = std::make_unique<Campaign>();
  campaign->id = next_id_++;
  campaign->lanes = std::clamp(spec.lanes, 1, total_lanes_);
  campaign->spec = std::move(spec);
  Campaign& ref = *campaign;
  campaigns_.push_back(std::move(campaign));
  admit_queue_.push_back(ref.id);
  ref.submit_unix = UnixSecondsNow();
  RecordTransitionLocked(EventKind::kCampaignSubmitted, ref);
  ref.worker = std::thread([this, &ref] { RunCampaign(ref); });
  return ref.id;
}

void CampaignManager::RunCampaign(Campaign& campaign) {
  {
    // Lane grant: strictly FIFO -- only the queue's front may take lanes, so a wide
    // campaign can never be starved by narrow ones submitted after it.
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] {
      if (shutting_down_ || campaign.cancel.load(std::memory_order_relaxed)) {
        return true;
      }
      return admit_queue_.front() == campaign.id &&
             lanes_in_use_ + campaign.lanes <= total_lanes_;
    });
    if (shutting_down_ || campaign.cancel.load(std::memory_order_relaxed)) {
      admit_queue_.erase(
          std::find(admit_queue_.begin(), admit_queue_.end(), campaign.id));
      campaign.state = CampaignState::kCancelled;
      campaign.finish_unix = UnixSecondsNow();
      RecordTransitionLocked(EventKind::kCampaignFinished, campaign);
      changed_.notify_all();
      return;
    }
    admit_queue_.pop_front();
    lanes_in_use_ += campaign.lanes;
    campaign.state = CampaignState::kRunning;
    campaign.start_unix = UnixSecondsNow();
    RecordTransitionLocked(EventKind::kCampaignStarted, campaign);
    changed_.notify_all();
  }

  CampaignState terminal = CampaignState::kDone;
  std::string error;
  try {
    // Private context over the campaign's own telemetry members (alive beyond the pass,
    // so live stats polls can snapshot mid-run): the pool holds exactly the granted
    // lanes, resolved here once with env_overrides = false -- the environment is never
    // consulted again for this campaign (src/common/context.h).
    EngineContext context(EngineOptions{.threads = campaign.lanes,
                                        .env_overrides = false,
                                        .metrics = &campaign.registry,
                                        .trace = &campaign.recorder,
                                        .series = &campaign.series});

    PopulationConfig population;
    population.processor_count = campaign.spec.processors;
    population.seed = campaign.spec.seed;

    const TestSuite suite = TestSuite::BuildFull();
    if (campaign.spec.kind == "scrub") {
      // Scrub campaign: discovery with the single scenario's screening config, then the
      // budgeted epoch loop. The progress ledger counts epochs (epoch_tick fires once
      // after discovery and after every epoch); a cancel request lands at the next epoch
      // boundary via the tick's return value, surfacing here as ScrubCancelledError.
      ScrubConfig config;
      config.population = population;
      config.screening = campaign.spec.scenarios.front().config;
      config.budget_fraction = campaign.spec.scrub_budget_fraction;
      config.horizon_months = campaign.spec.scrub_horizon_months;
      config.epoch_months = campaign.spec.scrub_epoch_months;
      config.max_cases_per_round = campaign.spec.scrub_max_cases;
      config.workload_sample_hours = campaign.spec.scrub_sample_hours;
      config.epoch_tick = [this, &campaign](uint64_t epochs_done,
                                            uint64_t epochs_total) {
        campaign.shards_done.store(epochs_done, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          campaign.shards_total = epochs_total;
        }
        return !campaign.cancel.load(std::memory_order_relaxed);
      };
      campaign.result.scrub = FleetScrubber(&suite).Run(config, context);
      campaign.detections.store(campaign.result.scrub->detections.size(),
                                std::memory_order_relaxed);
    } else {
      ScreeningPipeline pipeline(&suite);
      ScenarioBatch batch;
      batch.scenarios.reserve(campaign.spec.scenarios.size());
      for (const SweepScenario& scenario : campaign.spec.scenarios) {
        batch.scenarios.push_back(scenario.config);
      }

      FleetShardStream stream(population);
      StreamingScreen screen(&pipeline, batch);
      DetectionTally tally(&campaign.detections);
      screen.AddObserver(&tally);
      CampaignGuard guard(&campaign.cancel, &campaign.shards_done);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        campaign.shards_total = stream.shard_count();
      }
      stream.Drive({&guard, &screen}, context);

      campaign.result.stats = screen.TakeBatchStats();
    }
    campaign.result.metrics = campaign.registry.Snapshot();
    campaign.result.trace = campaign.recorder.Snapshot();
  } catch (const CampaignCancelledError&) {
    terminal = CampaignState::kCancelled;
  } catch (const ScrubCancelledError&) {
    terminal = CampaignState::kCancelled;
  } catch (const std::exception& e) {
    terminal = CampaignState::kFailed;
    error = e.what();
  } catch (...) {
    terminal = CampaignState::kFailed;
    error = "unknown error";
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_in_use_ -= campaign.lanes;
    campaign.state = terminal;
    campaign.error = std::move(error);
    campaign.finish_unix = UnixSecondsNow();
    RecordTransitionLocked(EventKind::kCampaignFinished, campaign);
    changed_.notify_all();
  }
}

CampaignStatus CampaignManager::StatusLocked(const Campaign& campaign) const {
  CampaignStatus status;
  status.id = campaign.id;
  status.name = campaign.spec.name;
  status.state = campaign.state;
  status.lanes = campaign.lanes;
  status.shards_done = campaign.shards_done.load(std::memory_order_relaxed);
  status.shards_total = campaign.shards_total;
  status.detections = campaign.detections.load(std::memory_order_relaxed);
  status.submit_unix = campaign.submit_unix;
  status.start_unix = campaign.start_unix;
  status.finish_unix = campaign.finish_unix;
  status.error = campaign.error;
  return status;
}

std::optional<CampaignStatus> CampaignManager::GetStatus(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Campaign* campaign = FindLocked(id);
  if (campaign == nullptr) {
    return std::nullopt;
  }
  return StatusLocked(*campaign);
}

std::vector<CampaignStatus> CampaignManager::List() const {
  std::vector<CampaignStatus> statuses;
  std::lock_guard<std::mutex> lock(mutex_);
  statuses.reserve(campaigns_.size());
  for (const auto& campaign : campaigns_) {
    statuses.push_back(StatusLocked(*campaign));
  }
  return statuses;
}

std::optional<CampaignStats> CampaignManager::GetStats(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Campaign* campaign = FindLocked(id);
  if (campaign == nullptr) {
    return std::nullopt;
  }
  // Sink locks nest inside the manager's (workers take them without it), so snapshotting
  // a running campaign here cannot deadlock.
  CampaignStats stats;
  stats.status = StatusLocked(*campaign);
  stats.series = campaign->series.Snapshot();
  stats.metrics = campaign->registry.Snapshot();
  return stats;
}

DaemonStats CampaignManager::GetDaemonStats() const {
  DaemonStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.total_lanes = total_lanes_;
    stats.lanes_in_use = lanes_in_use_;
    stats.queue_depth = admit_queue_.size();
    stats.campaigns = campaigns_.size();
  }
  stats.events_recorded = events_.total_recorded();
  stats.events_dropped = events_.dropped_events();
  stats.host_series = host_series_.Snapshot();
  return stats;
}

MetricsSnapshot CampaignManager::AggregateMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot merged;
  for (const auto& campaign : campaigns_) {
    merged.MergeFrom(campaign->registry.Snapshot());
  }
  return merged;
}

bool CampaignManager::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Campaign* campaign = FindLocked(id);
  if (campaign == nullptr) {
    return false;
  }
  campaign->cancel.store(true, std::memory_order_relaxed);
  changed_.notify_all();
  return true;
}

std::optional<CampaignState> CampaignManager::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Campaign* campaign = FindLocked(id);
  if (campaign == nullptr) {
    return std::nullopt;
  }
  changed_.wait(lock, [&] {
    return campaign->state == CampaignState::kDone ||
           campaign->state == CampaignState::kCancelled ||
           campaign->state == CampaignState::kFailed;
  });
  return campaign->state;
}

const CampaignResult* CampaignManager::Result(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Campaign* campaign = FindLocked(id);
  if (campaign == nullptr || campaign->state != CampaignState::kDone) {
    return nullptr;
  }
  return &campaign->result;
}

void CampaignManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (const auto& campaign : campaigns_) {
      campaign->cancel.store(true, std::memory_order_relaxed);
    }
    changed_.notify_all();
  }
  for (const auto& campaign : campaigns_) {
    if (campaign->worker.joinable()) {
      campaign->worker.join();
    }
  }
}

}  // namespace sdc
