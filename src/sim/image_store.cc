#include "src/sim/image_store.h"

#include <utility>

#include "src/sim/image.h"

namespace tcsim {

uint64_t ImageStore::Reject(const std::string& why) {
  error_ = why;
  return 0;
}

uint64_t ImageStore::Put(std::vector<uint8_t> bytes) {
  CheckpointImageView view(bytes);
  if (!view.ok()) {
    return Reject("malformed image: " + view.error());
  }

  uint64_t id;
  const uint64_t parent = view.parent_id();
  if (view.format_version() == kImageFormatVersion) {
    id = next_id_;
  } else {
    id = view.image_id();
    if (id == 0) {
      return Reject("v2 image without an id");
    }
    if (images_.count(id) != 0) {
      return Reject("duplicate image id " + std::to_string(id));
    }
    if (parent != 0 && images_.count(parent) == 0) {
      return Reject("missing parent image " + std::to_string(parent));
    }
  }

  StoredImage img;
  img.parent = parent;
  img.delta_refs = view.delta_ref_count();
  img.order = view.ChunkIds();
  const StoredImage* parent_img =
      parent != 0 ? &images_.at(parent) : nullptr;
  for (const std::string& chunk_id : img.order) {
    if (view.HasChunk(chunk_id)) {
      auto resolved = std::make_shared<ResolvedChunk>();
      resolved->payload = view.Chunk(chunk_id);
      resolved->crc = view.ChunkCrc(chunk_id);  // verified by the view
      img.resolved.emplace(chunk_id, std::move(resolved));
    } else {
      // Delta ref: must resolve against the direct parent, and the recorded
      // CRC must match the parent's actual resolved content — a parent that
      // drifted since this delta was cut means the chain is broken.
      auto it = parent_img->resolved.find(chunk_id);
      if (it == parent_img->resolved.end()) {
        return Reject("delta ref '" + chunk_id + "' absent in parent " +
                      std::to_string(parent));
      }
      if (it->second->crc != view.DeltaRefCrc(chunk_id)) {
        return Reject("stale parent CRC for chunk '" + chunk_id + "'");
      }
      img.resolved.emplace(chunk_id, it->second);
    }
  }

  stored_bytes_ += bytes.size();
  img.raw = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  images_.emplace(id, std::move(img));
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
  error_.clear();
  return id;
}

uint64_t ImageStore::ParentOf(uint64_t id) const {
  return images_.at(id).parent;
}

size_t ImageStore::DeltaRefCount(uint64_t id) const {
  return images_.at(id).delta_refs;
}

const std::vector<uint8_t>& ImageStore::RawBytes(uint64_t id) const {
  return *images_.at(id).raw;
}

std::shared_ptr<const std::vector<uint8_t>> ImageStore::RawShared(
    uint64_t id) const {
  return images_.at(id).raw;
}

std::vector<uint8_t> ImageStore::Materialize(uint64_t id) const {
  auto it = images_.find(id);
  if (it == images_.end()) {
    return {};
  }
  const StoredImage& img = it->second;
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(id, 0);
  for (const std::string& chunk_id : img.order) {
    const ResolvedChunk& chunk = *img.resolved.at(chunk_id);
    builder.AddChunk(chunk_id, chunk.payload, chunk.crc);
  }
  return builder.Serialize();
}

void ImageStore::PruneExcept(uint64_t keep) {
  for (auto it = images_.begin(); it != images_.end();) {
    if (it->first != keep) {
      stored_bytes_ -= it->second.raw->size();
      it = images_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace tcsim
