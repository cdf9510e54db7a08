#include "src/checkpoint/epoch_coordinator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

namespace tcsim {

PartitionEpochCoordinator::PartitionEpochCoordinator(
    PartitionScheduler* scheduler, SimTime period, CaptureFn capture)
    : scheduler_(scheduler),
      period_(period),
      capture_(std::move(capture)),
      next_epoch_(period) {
  // A zero or negative period would leave next_epoch_ pinned at or below the
  // RunUntil target forever — fail fast instead of hanging the run.
  assert(period_ > 0 && "epoch period must be positive");
  if (period_ <= 0) {
    std::fprintf(stderr,
                 "PartitionEpochCoordinator: epoch period must be positive "
                 "(got %lld)\n",
                 static_cast<long long>(period_));
    std::abort();
  }
}

PartitionEpochCoordinator::~PartitionEpochCoordinator() { JoinBackground(); }

void PartitionEpochCoordinator::EnableAsyncCapture(SnapshotFn snapshot) {
  assert(snapshot);
  JoinBackground();
  snapshot_ = std::move(snapshot);
  async_ = true;
}

double PartitionEpochCoordinator::JoinBackground() {
  if (!background_.joinable()) {
    return 0.0;
  }
  const auto start = std::chrono::steady_clock::now();
  background_.join();
  const auto end = std::chrono::steady_clock::now();
  // Publish the joined commit's images on this (the coordinator) thread.
  // BackgroundCommit writes background_images_, never committed_images_, so
  // readers of last_epoch_images() between a launch and the next join edge
  // (the HA layer harvests at every barrier) never race the commit thread.
  committed_images_ = std::move(background_images_);
  background_images_.clear();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void PartitionEpochCoordinator::RunUntil(SimTime t) {
  while (next_epoch_ <= t) {
    StepEpoch(t);
  }
  StepEpoch(t);
  // The caller's later records belong to no epoch.
  obs::TraceSession::UnbindThread();
}

SimTime PartitionEpochCoordinator::StepEpoch(SimTime horizon) {
  obs::TraceSession::BindThread(obs::TraceSession::kCoordinatorShard,
                                epoch_index_);
  obs::TraceSession& session = obs::TraceSession::Global();
  if (next_epoch_ <= horizon) {
    const SimTime barrier = next_epoch_;
    if (session.enabled() && epoch_open_ms_ < 0) {
      epoch_open_ms_ = session.NowMs();
    }
    {
      obs::Span window("checkpoint", "window", "barrier");
      scheduler_->RunUntil(barrier);
    }
    CaptureEpoch();
    next_epoch_ += period_;
    ++epoch_index_;
    return barrier;
  }
  {
    obs::Span window("checkpoint", "window", "horizon");
    scheduler_->RunUntil(horizon);
  }
  // Callers read history()/CapturesDigest()/spill_handles() after reaching
  // the horizon; the join edge makes those reads race-free and means a
  // returned RunUntil always describes fully committed epochs.
  obs::Span wait("checkpoint", "commit_wait", "final_join");
  JoinBackground();
  return horizon;
}

void PartitionEpochCoordinator::CloseEpoch(const char* mode) {
  obs::TraceSession& session = obs::TraceSession::Global();
  if (!session.enabled()) {
    return;
  }
  const double now = session.NowMs();
  session.Stamp("checkpoint", "epoch", mode,
                epoch_open_ms_ >= 0 ? epoch_open_ms_ : now, now);
  epoch_open_ms_ = now;
}

void PartitionEpochCoordinator::CaptureEpochAsync() {
  const uint64_t k = epoch_index_;
  EpochRecord rec;
  rec.async = true;
  rec.at = scheduler_->partition_count() > 0
               ? scheduler_->partition(0)->sim()->Now()
               : next_epoch_;
  // Only a *subsequent* epoch blocks on the previous epoch's commit: by the
  // time the system has simulated one more period, the commit has usually
  // long finished and this join is free.
  {
    obs::Span wait("checkpoint", "commit_wait", "prev_epoch_commit");
    rec.commit_wait_ms = JoinBackground();
  }

  staged_.resize(scheduler_->partition_count());
  obs::Span freeze("checkpoint", "freeze", "barrier");
  const auto start = std::chrono::steady_clock::now();
  // Freeze phase, inside the barrier: each partition clones its component
  // state into its pinned staging buffer — no archive framing, no CRC, no
  // repo I/O. Cost scales with dirty state, not image bytes.
  scheduler_->ForEachPartition([this, k](Partition* p) {
    obs::ThreadBinding bind(obs::TraceSession::PartitionShard(p->id()), k);
    obs::Span span("checkpoint", "freeze.partition", "snapshot");
    StagedCapture* staged = &staged_[p->id()];
    pool_.Acquire(staged);
    snapshot_(p, staged);
  });
  const auto end = std::chrono::steady_clock::now();
  freeze.End();
  rec.frozen_wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  rec.wall_ms = rec.frozen_wall_ms;

  history_.push_back(rec);
  const size_t index = history_.size() - 1;
  // The epoch's serial (frozen) span ends here: the background phase below
  // overlaps the next window and is attributed to this epoch by its labels.
  CloseEpoch("async");
  // Background phase: partitions run the next window while this thread
  // serializes, digests, and spills. The previous thread was joined above,
  // so all repository work stays serialized on one owner at a time and the
  // members BackgroundCommit touches are handed off race-free. The spawn
  // itself is serial coordinator time (tens of microseconds) spent after the
  // epoch closed — stamped so fast epochs still attribute fully.
  obs::Span launch("checkpoint", "commit_launch", "thread_spawn");
  background_ = std::thread([this, index] { BackgroundCommit(index); });
}

void PartitionEpochCoordinator::BackgroundCommit(size_t index) {
  // history_ grows one record per epoch, so index + 1 is the 1-based epoch
  // this commit belongs to — the label its overlapped work carries.
  obs::ThreadBinding bind(obs::TraceSession::kCommitShard,
                          static_cast<uint64_t>(index) + 1);
  EpochRecord& rec = history_[index];
  // The epoch's sim instant: the repository's spans below take it too.
  obs::Span commit("checkpoint", "commit", "background", rec.at);
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<RepoWriteBatch> batch =
      repo_ != nullptr ? repo_->BeginBatch() : nullptr;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> images(
      staged_.size());
  for (size_t p = 0; p < staged_.size(); ++p) {
    obs::Span serialize("checkpoint", "serialize.partition", "background");
    serialize.SetPartition(static_cast<int32_t>(p));
    auto image = std::make_shared<const std::vector<uint8_t>>(
        SerializeStagedImage(staged_[p]));
    serialize.End();
    rec.image_bytes += image->size();
    captures_digest_.MixBytes(image->data(), image->size());
    if (batch != nullptr) {
      batch->Stage(image, /*sequence=*/p + 1);
    }
    images[p] = std::move(image);
    pool_.Release(&staged_[p]);
  }
  if (batch != nullptr) {
    const auto spill_start = std::chrono::steady_clock::now();
    const CheckpointRepo::BatchCommitResult result =
        repo_->CommitBatch(std::move(batch));
    const auto spill_end = std::chrono::steady_clock::now();
    rec.spill_wall_ms =
        std::chrono::duration<double, std::milli>(spill_end - spill_start)
            .count();
    rec.spill_ok = result.ok;
    rec.spill_images = result.images;
    rec.spill_bytes = result.appended_payload_bytes;
    spill_handles_.clear();
    if (result.ok) {
      spill_handles_.assign(staged_.size(), 0);
      std::vector<uint64_t> sorted = result.handles;
      std::sort(sorted.begin(), sorted.end());
      for (size_t p = 0; p < sorted.size(); ++p) {
        spill_handles_[p] = sorted[p];
      }
    }
  }
  background_images_ = std::move(images);
  rec.background_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
}

void PartitionEpochCoordinator::CaptureEpoch() {
  if (async_) {
    CaptureEpochAsync();
    return;
  }
  const uint64_t k = epoch_index_;
  EpochRecord rec;
  rec.at = scheduler_->partition_count() > 0
               ? scheduler_->partition(0)->sim()->Now()
               : next_epoch_;
  if (capture_) {
    images_.assign(scheduler_->partition_count(), nullptr);
    std::unique_ptr<RepoWriteBatch> batch =
        repo_ != nullptr ? repo_->BeginBatch() : nullptr;
    obs::Span capture("checkpoint", "capture", "barrier");
    const auto start = std::chrono::steady_clock::now();
    // Each capture runs as one pool task and writes only its own slot; the
    // phase barrier inside ForEachPartition publishes the slots back to this
    // thread. With a repository attached the worker also stages its image
    // into the shared batch right away (RepoWriteBatch::Stage is
    // thread-safe), so content hashing overlaps the remaining captures;
    // sequence = partition id keeps the commit order — and therefore the
    // repository's bytes — independent of worker interleaving.
    scheduler_->ForEachPartition([this, &batch, k](Partition* p) {
      obs::ThreadBinding bind(obs::TraceSession::PartitionShard(p->id()), k);
      obs::Span span("checkpoint", "capture.partition", "serialize");
      auto image = std::make_shared<const std::vector<uint8_t>>(capture_(p));
      if (batch != nullptr) {
        batch->Stage(image, /*sequence=*/p->id() + 1);
      }
      images_[p->id()] = std::move(image);
    });
    const auto end = std::chrono::steady_clock::now();
    rec.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    for (const auto& image : images_) {
      rec.image_bytes += image->size();
      captures_digest_.MixBytes(image->data(), image->size());
    }
    // The capture span closes after the digest fold: that fold is serial
    // coordinator work inside the frozen window too.
    capture.End();
    if (batch != nullptr) {
      obs::Span spill("checkpoint", "spill", "group_commit", rec.at);
      const auto spill_start = std::chrono::steady_clock::now();
      const CheckpointRepo::BatchCommitResult result =
          repo_->CommitBatch(std::move(batch));
      const auto spill_end = std::chrono::steady_clock::now();
      spill.End();
      rec.spill_wall_ms =
          std::chrono::duration<double, std::milli>(spill_end - spill_start)
              .count();
      rec.spill_ok = result.ok;
      rec.spill_images = result.images;
      rec.spill_bytes = result.appended_payload_bytes;
      spill_handles_.clear();
      if (result.ok) {
        // Tickets were issued in stage (worker) order; sequence = partition
        // id is what fixed the handle order. Re-index by partition.
        spill_handles_.assign(scheduler_->partition_count(), 0);
        std::vector<uint64_t> sorted = result.handles;
        std::sort(sorted.begin(), sorted.end());
        for (size_t p = 0; p < sorted.size(); ++p) {
          spill_handles_[p] = sorted[p];
        }
      }
    }
    committed_images_ = std::move(images_);
    images_.clear();
  }
  history_.push_back(rec);
  CloseEpoch("sync");
}

}  // namespace tcsim
