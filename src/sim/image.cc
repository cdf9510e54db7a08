#include "src/sim/image.h"

#include <array>
#include <cassert>
#include <cstring>
#include <set>
#include <utility>

#include "src/sim/archive.h"

namespace tcsim {
namespace {

// Slicing-by-8 tables for the reflected IEEE CRC-32 (polynomial 0xEDB88320).
// Row 0 is the classic bytewise table; row k advances a row-0 entry by k more
// zero bytes, so one step folds eight input bytes with eight lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian load regardless of host byte order (compilers fuse it into
// one 32-bit load on little-endian targets).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Serialized size of a length-prefixed string.
size_t StringWireSize(const std::string& s) {
  return sizeof(uint64_t) + s.size();
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void CheckpointImageBuilder::AddChunk(std::string id,
                                      std::vector<uint8_t> payload) {
  const uint32_t crc = Crc32(payload);
  AddChunk(std::move(id), std::move(payload), crc);
}

void CheckpointImageBuilder::AddChunk(std::string id,
                                      std::vector<uint8_t> payload,
                                      uint32_t crc) {
  chunks_.push_back(
      PendingChunk{std::move(id), kChunkKindPayload, std::move(payload), crc});
}

void CheckpointImageBuilder::AddDeltaChunk(std::string id,
                                           uint32_t expected_parent_crc) {
  chunks_.push_back(
      PendingChunk{std::move(id), kChunkKindDeltaRef, {}, expected_parent_crc});
}

void CheckpointImageBuilder::Add(const Checkpointable& c) {
  ArchiveWriter w;
  c.SaveState(&w);
  AddChunk(c.checkpoint_id(), w.Take());
}

void CheckpointImageBuilder::SetDeltaHeader(uint64_t image_id,
                                            uint64_t parent_id) {
  delta_header_ = true;
  image_id_ = image_id;
  parent_id_ = parent_id;
}

std::vector<uint8_t> CheckpointImageBuilder::Serialize() const {
  bool has_delta_chunks = false;
  size_t total = 3 * sizeof(uint32_t) + sizeof(uint64_t);  // v1 header bound
  for (const PendingChunk& c : chunks_) {
    total += StringWireSize(c.id) + sizeof(uint8_t);
    if (c.kind == kChunkKindPayload) {
      total += sizeof(uint64_t) + sizeof(uint32_t) + c.payload.size();
    } else {
      total += sizeof(uint32_t);
      has_delta_chunks = true;
    }
  }
  // A delta ref is meaningless without a parent to resolve it against;
  // readers reject such images, so refuse to build one.
  assert(!(has_delta_chunks && (!delta_header_ || parent_id_ == 0)));
  (void)has_delta_chunks;

  const bool v2 = delta_header_;
  if (v2) {
    total += 2 * sizeof(uint64_t);
  }

  ArchiveWriter w;
  w.Reserve(total);
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(v2 ? kImageFormatVersionDelta : kImageFormatVersion);
  if (v2) {
    w.Write<uint64_t>(image_id_);
    w.Write<uint64_t>(parent_id_);
  }
  w.Write<uint64_t>(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    w.WriteString(c.id);
    if (v2) {
      w.Write<uint8_t>(c.kind);
    }
    if (c.kind == kChunkKindPayload) {
      w.Write<uint64_t>(c.payload.size());
      w.Write<uint32_t>(c.crc);
      w.WriteBytes(c.payload.data(), c.payload.size());
    } else {
      w.Write<uint32_t>(c.crc);
    }
  }
  return w.Take();
}

CheckpointImageView::CheckpointImageView(const std::vector<uint8_t>& image) {
  ArchiveReader r(image);
  const uint32_t magic = r.Read<uint32_t>();
  if (!r.ok() || magic != kImageMagic) {
    Fail("bad magic");
    return;
  }
  version_ = r.Read<uint32_t>();
  if (!r.ok() || (version_ != kImageFormatVersion &&
                  version_ != kImageFormatVersionDelta)) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const bool v2 = version_ == kImageFormatVersionDelta;
  if (v2) {
    image_id_ = r.Read<uint64_t>();
    parent_id_ = r.Read<uint64_t>();
  }
  const uint64_t count = r.Read<uint64_t>();
  if (!r.ok()) {
    Fail("truncated header");
    return;
  }
  for (uint64_t i = 0; i < count; ++i) {
    const std::string id = r.ReadString();
    uint8_t kind = kChunkKindPayload;
    if (v2) {
      kind = r.Read<uint8_t>();
      if (r.ok() && kind != kChunkKindPayload && kind != kChunkKindDeltaRef) {
        Fail("unknown chunk kind in chunk '" + id + "'");
        return;
      }
    }
    if (kind == kChunkKindPayload) {
      const uint64_t len = r.Read<uint64_t>();
      const uint32_t crc = r.Read<uint32_t>();
      if (!r.ok() || len > r.remaining()) {
        Fail("truncated chunk table");
        return;
      }
      std::vector<uint8_t> payload = r.ReadBytes(len);
      if (!r.ok()) {
        Fail("truncated chunk payload");
        return;
      }
      if (Crc32(payload) != crc) {
        Fail("CRC mismatch in chunk '" + id + "'");
        return;
      }
      if (v2 && chunks_.count(id) != 0) {
        Fail("duplicate chunk id '" + id + "'");
        return;
      }
      // In v1 later duplicates lose; ids are unique in well-formed images.
      if (chunks_.emplace(id, ParsedChunk{kind, std::move(payload), crc})
              .second) {
        order_.push_back(id);
      }
    } else {
      const uint32_t expected_crc = r.Read<uint32_t>();
      if (!r.ok()) {
        Fail("truncated delta ref");
        return;
      }
      if (parent_id_ == 0) {
        Fail("delta ref in chunk '" + id + "' of a parentless image");
        return;
      }
      if (chunks_.count(id) != 0) {
        Fail("duplicate chunk id '" + id + "'");
        return;
      }
      chunks_.emplace(id, ParsedChunk{kind, {}, expected_crc});
      order_.push_back(id);
      ++delta_ref_count_;
    }
  }
  ok_ = true;
}

void CheckpointImageView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
  order_.clear();
  delta_ref_count_ = 0;
}

bool CheckpointImageView::HasChunk(const std::string& id) const {
  if (!ok_) {
    return false;
  }
  auto it = chunks_.find(id);
  return it != chunks_.end() && it->second.kind == kChunkKindPayload;
}

const std::vector<uint8_t>& CheckpointImageView::Chunk(
    const std::string& id) const {
  return chunks_.at(id).payload;
}

bool CheckpointImageView::HasDeltaRef(const std::string& id) const {
  if (!ok_) {
    return false;
  }
  auto it = chunks_.find(id);
  return it != chunks_.end() && it->second.kind == kChunkKindDeltaRef;
}

uint32_t CheckpointImageView::ChunkCrc(const std::string& id) const {
  return chunks_.at(id).crc;
}

uint32_t CheckpointImageView::DeltaRefCrc(const std::string& id) const {
  return chunks_.at(id).crc;
}

namespace {

// Bounds-checked forward cursor over the raw image bytes; every read either
// advances or trips the sticky fail flag (mirrors ArchiveReader, but hands
// out spans instead of copies).
struct SpanCursor {
  const uint8_t* base;
  uint64_t size;
  uint64_t pos = 0;
  bool ok = true;

  template <typename T>
  T Read() {
    T v{};
    if (!ok || size - pos < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, base + pos, sizeof(T));
    pos += sizeof(T);
    return v;
  }

  std::string ReadString() {
    const uint64_t n = Read<uint64_t>();
    if (!ok || n > size - pos) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(base + pos), n);
    pos += n;
    return s;
  }

  ByteSpan ReadSpan(uint64_t n) {
    if (!ok || n > size - pos) {
      ok = false;
      return {};
    }
    ByteSpan span{base + pos, n};
    pos += n;
    return span;
  }
};

}  // namespace

CheckpointImageLiteView::CheckpointImageLiteView(
    const std::vector<uint8_t>& image) {
  SpanCursor c{image.data(), image.size()};
  const uint32_t magic = c.Read<uint32_t>();
  if (!c.ok || magic != kImageMagic) {
    Fail("bad magic");
    return;
  }
  version_ = c.Read<uint32_t>();
  if (!c.ok || (version_ != kImageFormatVersion &&
                version_ != kImageFormatVersionDelta)) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const bool v2 = version_ == kImageFormatVersionDelta;
  if (v2) {
    image_id_ = c.Read<uint64_t>();
    parent_id_ = c.Read<uint64_t>();
  }
  const uint64_t count = c.Read<uint64_t>();
  if (!c.ok) {
    Fail("truncated header");
    return;
  }
  std::set<std::string> seen;
  for (uint64_t i = 0; i < count; ++i) {
    std::string id = c.ReadString();
    uint8_t kind = kChunkKindPayload;
    if (v2) {
      kind = c.Read<uint8_t>();
      if (c.ok && kind != kChunkKindPayload && kind != kChunkKindDeltaRef) {
        Fail("unknown chunk kind in chunk '" + id + "'");
        return;
      }
    }
    if (kind == kChunkKindPayload) {
      const uint64_t len = c.Read<uint64_t>();
      const uint32_t crc = c.Read<uint32_t>();
      if (!c.ok) {
        Fail("truncated chunk table");
        return;
      }
      ByteSpan payload = c.ReadSpan(len);
      if (!c.ok) {
        Fail("truncated chunk payload");
        return;
      }
      if (!seen.insert(id).second) {
        if (v2) {
          Fail("duplicate chunk id '" + id + "'");
          return;
        }
        continue;  // v1: later duplicates lose
      }
      chunks_.push_back(Chunk{std::move(id), kind, payload, crc});
    } else {
      const uint32_t expected_crc = c.Read<uint32_t>();
      if (!c.ok) {
        Fail("truncated delta ref");
        return;
      }
      if (parent_id_ == 0) {
        Fail("delta ref in chunk '" + id + "' of a parentless image");
        return;
      }
      if (!seen.insert(id).second) {
        Fail("duplicate chunk id '" + id + "'");
        return;
      }
      chunks_.push_back(Chunk{std::move(id), kind, {}, expected_crc});
      ++delta_ref_count_;
    }
  }
  ok_ = true;
}

void CheckpointImageLiteView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
  delta_ref_count_ = 0;
}

bool CheckpointImageView::RestoreInto(Checkpointable& c) const {
  const std::string id = c.checkpoint_id();
  if (!HasChunk(id)) {
    return false;
  }
  ArchiveReader r(Chunk(id));
  c.RestoreState(r);
  return r.ok();
}

}  // namespace tcsim
