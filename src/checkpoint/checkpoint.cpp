#include "checkpoint/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace hs::ckpt {

namespace {

/// Directory-relative chunk file path: epoch subdir + buffer name +
/// per-epoch chunk ordinal. Matches the manifest layer's epoch_%06
/// naming so inspection tools can associate files with epochs.
std::string chunk_file_name(std::uint64_t epoch, const std::string& buffer,
                            std::size_t ordinal) {
  char head[32];
  std::snprintf(head, sizeof head, "epoch_%06" PRIu64 "/", epoch);
  return std::string(head) + buffer + "." + std::to_string(ordinal) +
         ".chunk";
}

}  // namespace

CheckpointManager::CheckpointManager(Runtime& runtime, CheckpointConfig config)
    : runtime_(runtime),
      config_(std::move(config)),
      crash_(config_.crash) {
  require(!config_.directory.empty(), "checkpoint directory must be set");
  time_at_mark_ = runtime_.now();
  actions_at_mark_ = runtime_.stats().actions_completed;
  if (config_.async_writer) {
    writer_ = std::thread([this] { writer_main(); });
  }
}

CheckpointManager::~CheckpointManager() {
  {
    const std::scoped_lock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) {
    writer_.join();  // drains queued epochs first (writer_main)
  }
}

void CheckpointManager::track(std::string name, BufferId id) {
  require(!name.empty(), "tracked buffer name must not be empty");
  require(std::none_of(name.begin(), name.end(),
                       [](unsigned char c) {
                         return c == '/' || std::isspace(c) != 0;
                       }),
          "tracked buffer name must not contain '/' or whitespace");
  const std::size_t size = runtime_.buffer_size(id);  // throws on unknown id
  {
    const std::scoped_lock lock(mu_);
    for (const Tracked& t : tracked_) {
      require(t.name != name, "tracked buffer name already in use");
      require(t.id != id, "buffer already tracked under another name");
    }
    tracked_.push_back({std::move(name), id, size});
  }
  // The first epoch after tracking begins is a full snapshot of this
  // buffer: its entire current value is "changed" relative to the
  // (nonexistent) previous epoch.
  runtime_.mark_ckpt_dirty(id, 0, size);
}

bool CheckpointManager::due() const {
  std::uint64_t actions_mark = 0;
  double time_mark = 0.0;
  {
    const std::scoped_lock lock(mu_);
    actions_mark = actions_at_mark_;
    time_mark = time_at_mark_;
  }
  if (config_.interval_actions > 0 &&
      runtime_.stats().actions_completed - actions_mark >=
          config_.interval_actions) {
    return true;
  }
  return config_.interval_seconds > 0.0 &&
         runtime_.now() - time_mark >= config_.interval_seconds;
}

Status CheckpointManager::maybe_checkpoint(const GraphCursor& cursor) {
  return due() ? checkpoint(cursor) : Status::ok();
}

Status CheckpointManager::checkpoint(const GraphCursor& cursor) {
  if (Status poison = check_poisoned(); !poison) {
    return poison;
  }
  // The consistent cut: nothing is in flight while we read host memory,
  // so the snapshot is a state the program actually passed through.
  runtime_.synchronize();

  StagedEpoch staged;
  staged.cursor = cursor;
  std::vector<Tracked> tracked;
  {
    const std::scoped_lock lock(mu_);
    tracked = tracked_;
    staged.epoch = next_epoch_;
  }
  for (const Tracked& t : tracked) {
    if (Status home = runtime_.sync_home(t.id); !home) {
      return home;
    }
    // Drain the epoch-dirty set even when persisting the whole buffer,
    // so it cannot grow without bound across full-snapshot epochs.
    std::vector<std::pair<std::size_t, std::size_t>> ranges =
        runtime_.take_ckpt_dirty(t.id);
    if (!config_.incremental) {
      ranges.assign(1, {std::size_t{0}, t.size});
    }
    std::size_t dirty_bytes = 0;
    for (const auto& [offset, length] : ranges) {
      StagedChunk chunk;
      chunk.buffer = t.name;
      chunk.offset = offset;
      chunk.bytes.resize(length);
      std::memcpy(chunk.bytes.data(),
                  runtime_.buffer_local(t.id, kHostDomain, offset, length),
                  length);
      dirty_bytes += length;
      staged.chunks.push_back(std::move(chunk));
    }
    staged.bytes_skipped += t.size - std::min(dirty_bytes, t.size);
    staged.buffers.emplace(t.name, t.size);
  }
  staged.time = runtime_.now();
  staged.actions_completed = runtime_.stats().actions_completed;
  {
    const std::scoped_lock lock(mu_);
    ++next_epoch_;
    actions_at_mark_ = staged.actions_completed;
    time_at_mark_ = staged.time;
  }
  if (!config_.async_writer) {
    return persist(std::move(staged));
  }
  {
    const std::scoped_lock lock(mu_);
    queue_.push_back(std::move(staged));
  }
  cv_.notify_all();
  return Status::ok();
}

Status CheckpointManager::persist(StagedEpoch epoch) {
  try {
    std::vector<ChunkRef> fresh;
    fresh.reserve(epoch.chunks.size());
    std::uint64_t bytes_written = 0;
    for (std::size_t i = 0; i < epoch.chunks.size(); ++i) {
      const StagedChunk& chunk = epoch.chunks[i];
      ChunkRef ref;
      if (Status s = write_chunk(
              config_.directory,
              chunk_file_name(epoch.epoch, chunk.buffer, i), chunk.buffer,
              epoch.epoch, chunk.offset, chunk.bytes.data(),
              chunk.bytes.size(), ref, &crash_);
          !s) {
        const std::scoped_lock lock(mu_);
        poisoned_ = true;
        failure_ = s;
        return s;
      }
      bytes_written += chunk.bytes.size();
      fresh.push_back(std::move(ref));
    }
    Manifest manifest;
    manifest.epoch = epoch.epoch;
    manifest.time = epoch.time;
    manifest.actions_completed = epoch.actions_completed;
    manifest.cursor = epoch.cursor;
    manifest.buffers = std::move(epoch.buffers);
    {
      const std::scoped_lock lock(mu_);
      manifest.chunks = committed_chunks_;
    }
    manifest.chunks.insert(manifest.chunks.end(), fresh.begin(), fresh.end());
    if (Status s = write_manifest(config_.directory, manifest, &crash_); !s) {
      const std::scoped_lock lock(mu_);
      poisoned_ = true;
      failure_ = s;
      return s;
    }
    {
      const std::scoped_lock lock(mu_);
      committed_chunks_ = std::move(manifest.chunks);
      last_epoch_ = epoch.epoch;
    }
    runtime_.count(Counter::checkpoints_taken);
    runtime_.count(Counter::checkpoint_bytes_written, bytes_written);
    runtime_.count(Counter::checkpoint_bytes_skipped_clean,
                   epoch.bytes_skipped);
    return Status::ok();
  } catch (const CrashError&) {
    // The simulated process death: record it (a poisoned manager's disk
    // state trails its memory state, so no later epoch may pretend to
    // commit) and let it unwind like the SIGKILL it stands in for.
    {
      const std::scoped_lock lock(mu_);
      poisoned_ = true;
      crash_error_ = std::current_exception();
    }
    throw;
  }
}

Status CheckpointManager::check_poisoned() {
  std::exception_ptr crash;
  Status failure = Status::ok();
  {
    const std::scoped_lock lock(mu_);
    if (!poisoned_) {
      return Status::ok();
    }
    crash = crash_error_;
    failure = failure_;
  }
  if (crash != nullptr) {
    std::rethrow_exception(crash);
  }
  if (!failure) {
    return failure;
  }
  return Status::error(Errc::internal, "checkpoint manager poisoned");
}

Status CheckpointManager::flush() {
  if (config_.async_writer) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return queue_.empty() && !writer_busy_; });
  }
  return check_poisoned();
}

Status CheckpointManager::restore(RestoreInfo& info) {
  if (Status poison = check_poisoned(); !poison) {
    return poison;
  }
  std::vector<Tracked> tracked;
  {
    const std::scoped_lock lock(mu_);
    tracked = tracked_;
  }
  if (tracked.empty()) {
    return Status::error(Errc::invalid_argument,
                         "restore: no tracked buffers to rebind");
  }
  Manifest manifest;
  RecoveryOutcome outcome = RecoveryOutcome::clean;
  if (Status s = load_latest(config_.directory, manifest, &outcome); !s) {
    return s;
  }
  // The tracked set is the restart contract: the resumed program must
  // re-register exactly the buffers the checkpointed program tracked,
  // at the same sizes, or the chunk ranges mean nothing.
  if (manifest.buffers.size() != tracked.size()) {
    return Status::error(Errc::invalid_argument,
                         "restore: manifest tracks " +
                             std::to_string(manifest.buffers.size()) +
                             " buffers, runtime tracks " +
                             std::to_string(tracked.size()));
  }
  std::map<std::string, const Tracked*> by_name;
  for (const Tracked& t : tracked) {
    by_name.emplace(t.name, &t);
  }
  for (const auto& [name, size] : manifest.buffers) {
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::error(Errc::invalid_argument,
                           "restore: manifest buffer '" + name +
                               "' is not tracked");
    }
    if (it->second->size != size) {
      return Status::error(
          Errc::invalid_argument,
          "restore: buffer '" + name + "' is " +
              std::to_string(it->second->size) + " bytes, manifest says " +
              std::to_string(size));
    }
  }
  runtime_.synchronize();
  // Replay the chunks in manifest order: later epochs overwrite earlier
  // ones, landing the epoch's bytes in the host incarnations.
  for (const ChunkRef& ref : manifest.chunks) {
    const Tracked* t = by_name.at(ref.buffer);
    if (ref.offset + ref.length > t->size || ref.offset + ref.length < ref.offset) {
      return Status::error(Errc::data_loss,
                           "restore: chunk range escapes buffer '" +
                               ref.buffer + "'");
    }
    std::byte* dest = runtime_.buffer_local(t->id, kHostDomain, ref.offset,
                                            ref.length);
    if (Status s = read_chunk(config_.directory, ref, dest); !s) {
      return s;
    }
  }
  for (const Tracked& t : tracked) {
    // Declare the rewrite: device validity over the whole buffer is
    // invalidated, so re-uploads are not elided against pre-restore
    // state. The restored content *is* the last epoch's content, so the
    // epoch-dirty set restarts empty.
    runtime_.note_host_write(
        runtime_.buffer_local(t.id, kHostDomain, 0, t.size), t.size);
    (void)runtime_.take_ckpt_dirty(t.id);
  }
  {
    const std::scoped_lock lock(mu_);
    committed_chunks_ = manifest.chunks;
    last_epoch_ = manifest.epoch;
    next_epoch_ = manifest.epoch + 1;
    actions_at_mark_ = runtime_.stats().actions_completed;
    time_at_mark_ = runtime_.now();
  }
  runtime_.count(Counter::restores_performed);
  info.epoch = manifest.epoch;
  info.actions_completed = manifest.actions_completed;
  info.checkpoint_time = manifest.time;
  info.cursor = manifest.cursor;
  info.outcome = outcome;
  return Status::ok();
}

std::uint64_t CheckpointManager::last_epoch() const {
  const std::scoped_lock lock(mu_);
  return last_epoch_;
}

void CheckpointManager::writer_main() {
  for (;;) {
    StagedEpoch epoch;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      epoch = std::move(queue_.front());
      queue_.pop_front();
      writer_busy_ = true;
    }
    try {
      if (Status s = persist(std::move(epoch)); !s) {
        const std::scoped_lock lock(mu_);
        queue_.clear();  // later epochs may not pretend to commit
      }
    } catch (const CrashError&) {
      // persist already poisoned the manager and stored the exception
      // for the caller's next checkpoint()/flush(); the writer thread
      // itself survives — it models the *process* dying, which tests
      // deliver by abandoning the runtime, not by losing this thread.
      const std::scoped_lock lock(mu_);
      queue_.clear();
    }
    {
      const std::scoped_lock lock(mu_);
      writer_busy_ = false;
    }
    cv_.notify_all();
  }
}

}  // namespace hs::ckpt

namespace hs {

Status Runtime::restore_from_checkpoint(ckpt::CheckpointManager& manager,
                                        ckpt::RestoreInfo* info) {
  if (&manager.runtime() != this) {
    return Status::error(Errc::invalid_argument,
                         "restore_from_checkpoint: manager is bound to a "
                         "different runtime");
  }
  ckpt::RestoreInfo local;
  if (Status s = manager.restore(local); !s) {
    return s;
  }
  if (info != nullptr) {
    *info = local;
  }
  return Status::ok();
}

}  // namespace hs
