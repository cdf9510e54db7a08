#include "src/repo/write_batch.h"

#include <utility>

#include "src/repo/checkpoint_repo.h"
#include "src/repo/hash_pool.h"

namespace tcsim {

RepoWriteBatch::RepoWriteBatch(CheckpointRepo* repo) : repo_(repo) {}

RepoWriteBatch::~RepoWriteBatch() {
  // In-flight hash tasks hold raw pointers into entries_ (and `this`).
  WaitHashed();
}

uint64_t RepoWriteBatch::Stage(
    std::shared_ptr<const std::vector<uint8_t>> image, uint64_t sequence) {
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->bytes = std::move(image);

  // Structural parse on the staging thread: O(chunk count), no payload copy,
  // no hashing. A malformed image is remembered and rejected at commit with
  // the same error PutImage would have produced.
  CheckpointImageLiteView view(*entry->bytes);
  if (!view.ok()) {
    entry->parse_error = "malformed image: " + view.error();
  } else {
    entry->parsed_ok = true;
    entry->format_version = view.format_version();
    entry->embedded_id = view.image_id();
    entry->chunks.reserve(view.chunks().size());
    for (const CheckpointImageLiteView::Chunk& c : view.chunks()) {
      StagedChunk sc;
      sc.id = c.id;
      sc.declared_crc = c.crc;
      sc.span = c.payload;
      entry->chunks.push_back(std::move(sc));
    }
  }

  uint64_t ticket = 0;
  const bool hash = !entry->chunks.empty();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = entries_.size() + 1;
    entry->ticket = ticket;
    entry->sequence = sequence == kSequenceStageOrder ? ticket : sequence;
    staged_bytes_ += entry->bytes->size();
    if (hash) {
      ++hash_pending_;
    }
    entries_.push_back(std::move(owned));
  }
  if (hash) {
    repo_->hash_pool().Submit([this, entry] { HashEntry(entry); });
  }
  return ticket;
}

uint64_t RepoWriteBatch::Stage(std::vector<uint8_t>&& image,
                               uint64_t sequence) {
  return Stage(std::make_shared<const std::vector<uint8_t>>(std::move(image)),
               sequence);
}

size_t RepoWriteBatch::staged_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t RepoWriteBatch::staged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staged_bytes_;
}

void RepoWriteBatch::HashEntry(Entry* entry) {
  for (StagedChunk& sc : entry->chunks) {
    sc.key = ContentKeyOf(sc.span.data, sc.span.size);
    // The envelope's declared CRC is re-proven against the actual bytes —
    // the same integrity gate CheckpointImageView applied eagerly, moved off
    // the staging thread.
    sc.crc_ok = sc.key.crc == sc.declared_crc;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --hash_pending_;
    // Notify under the lock: the moment a waiter observes hash_pending_ == 0
    // it may destroy this batch, so the notify must complete before the
    // waiter can re-acquire the mutex and return.
    hashed_cv_.notify_all();
  }
}

void RepoWriteBatch::WaitHashed() {
  std::unique_lock<std::mutex> lock(mu_);
  hashed_cv_.wait(lock, [this] { return hash_pending_ == 0; });
}

}  // namespace tcsim
