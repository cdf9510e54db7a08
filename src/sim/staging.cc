#include "src/sim/staging.h"

#include <cassert>
#include <utility>

#include "src/sim/image.h"

namespace tcsim {

std::vector<uint8_t> SerializeStagedImage(const StagedCapture& capture) {
  CheckpointImageBuilder builder;
  for (const StagedEntry& entry : capture.entries) {
    assert(!entry.version_skip);
    const uint8_t* p = capture.entry_data(entry);
    builder.AddChunk(entry.id, ByteSpan{p, entry.size}, Crc32(p, entry.size));
  }
  return builder.Serialize();
}

void StagingBufferPool::Acquire(StagedCapture* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out->buffer.capacity() == 0 && !free_.empty()) {
    out->buffer = std::move(free_.back());
    free_.pop_back();
  }
  out->Reset();
  out->generation = generation_;
}

void StagingBufferPool::Release(StagedCapture* capture) {
  std::lock_guard<std::mutex> lock(mu_);
  capture->entries.clear();
  capture->buffer.clear();
  if (capture->buffer.capacity() != 0) {
    free_.push_back(std::move(capture->buffer));
    capture->buffer = std::vector<uint8_t>();
  }
  capture->generation = 0;
}

void StagingBufferPool::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
}

uint64_t StagingBufferPool::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

}  // namespace tcsim
