#include "src/sim/image.h"

#include <array>
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
  chunks_.push_back(PendingChunk{std::move(id), std::move(payload), {}, crc});
}

void CheckpointImageBuilder::AddChunk(std::string id, ByteSpan payload,
                                      uint32_t crc) {
  chunks_.push_back(PendingChunk{std::move(id), {}, payload, crc});
}

void CheckpointImageBuilder::Add(const Checkpointable& c) {
  ArchiveWriter w;
  c.SaveState(&w);
  AddChunk(c.checkpoint_id(), w.Take());
}

void CheckpointImageBuilder::SetImageId(uint64_t image_id) {
  v2_ = true;
  image_id_ = image_id;
}

std::vector<uint8_t> CheckpointImageBuilder::Serialize() const {
  size_t total = 2 * sizeof(uint32_t) + sizeof(uint64_t);
  if (v2_) {
    total += 2 * sizeof(uint64_t);
  }
  for (const PendingChunk& c : chunks_) {
    total += StringWireSize(c.id) + (v2_ ? sizeof(uint8_t) : 0) +
             sizeof(uint64_t) + sizeof(uint32_t) + c.payload().size;
  }

  ArchiveWriter w;
  w.Reserve(total);
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(v2_ ? kImageFormatVersion2 : kImageFormatVersion);
  if (v2_) {
    w.Write<uint64_t>(image_id_);
    w.Write<uint64_t>(0);  // parent image id
  }
  w.Write<uint64_t>(chunks_.size());
  for (const PendingChunk& c : chunks_) {
    w.WriteString(c.id);
    if (v2_) {
      w.Write<uint8_t>(kChunkKindPayload);
    }
    const ByteSpan payload = c.payload();
    w.Write<uint64_t>(payload.size);
    w.Write<uint32_t>(c.crc);
    w.WriteBytes(payload.data, payload.size);
  }
  return w.Take();
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
  if (!c.ok ||
      (version_ != kImageFormatVersion && version_ != kImageFormatVersion2)) {
    Fail("unsupported format version " + std::to_string(version_));
    return;
  }
  const bool v2 = version_ == kImageFormatVersion2;
  if (v2) {
    image_id_ = c.Read<uint64_t>();
    const uint64_t parent = c.Read<uint64_t>();
    if (c.ok && parent != 0) {
      Fail("nonzero parent image id " + std::to_string(parent));
      return;
    }
  }
  const uint64_t count = c.Read<uint64_t>();
  if (!c.ok) {
    Fail("truncated header");
    return;
  }
  std::set<std::string> seen;
  for (uint64_t i = 0; i < count; ++i) {
    std::string id = c.ReadString();
    if (v2) {
      const uint8_t kind = c.Read<uint8_t>();
      if (c.ok && kind != kChunkKindPayload) {
        Fail("unknown chunk kind in chunk '" + id + "'");
        return;
      }
    }
    const uint64_t len = c.Read<uint64_t>();
    const uint32_t crc = c.Read<uint32_t>();
    if (!c.ok) {
      Fail("truncated chunk table");
      return;
    }
    const ByteSpan payload = c.ReadSpan(len);
    if (!c.ok) {
      Fail("truncated chunk payload");
      return;
    }
    if (!seen.insert(id).second) {
      Fail("duplicate chunk id '" + id + "'");
      return;
    }
    chunks_.push_back(Chunk{std::move(id), payload, crc});
  }
  if (c.pos != c.size) {
    Fail(std::to_string(c.size - c.pos) + " bytes after the last chunk");
    return;
  }
  ok_ = true;
}

void CheckpointImageLiteView::Fail(const std::string& why) {
  ok_ = false;
  error_ = why;
  chunks_.clear();
}

CheckpointImageView::CheckpointImageView(const std::vector<uint8_t>& image) {
  const CheckpointImageLiteView lite(image);
  version_ = lite.format_version();
  if (!lite.ok()) {
    error_ = lite.error();
    return;
  }
  for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
    if (Crc32(c.payload.data, c.payload.size) != c.crc) {
      error_ = "CRC mismatch in chunk '" + c.id + "'";
      return;
    }
  }
  image_id_ = lite.image_id();
  for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
    chunks_.emplace(
        c.id, ParsedChunk{std::vector<uint8_t>(c.payload.data,
                                               c.payload.data + c.payload.size),
                          c.crc});
    order_.push_back(c.id);
  }
  ok_ = true;
}

bool CheckpointImageView::HasChunk(const std::string& id) const {
  return ok_ && chunks_.count(id) != 0;
}

const std::vector<uint8_t>& CheckpointImageView::Chunk(
    const std::string& id) const {
  return chunks_.at(id).payload;
}

uint32_t CheckpointImageView::ChunkCrc(const std::string& id) const {
  return chunks_.at(id).crc;
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
