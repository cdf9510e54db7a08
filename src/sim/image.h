// The versioned, chunked checkpoint-image container.
//
// A composite node image is a sequence of named chunks, one per
// Checkpointable component, wrapped in a small self-describing envelope.
// Every image is self-contained: each chunk carries its component's payload.
//
// Format v1:
//
//   header : magic u32 ("TCKP") | format version u32 | chunk count u64
//   chunk  : id (length-prefixed string) | payload length u64 | CRC32 u32
//          | payload bytes
//
// Format v2 adds an image identity and a kind byte per chunk:
//
//   header : magic u32 | format version u32 (=2) | image id u64
//          | parent image id u64 (always 0) | chunk count u64
//   chunk  : id (length-prefixed string) | kind u8 (always 1)
//          | payload length u64 | CRC32 u32 | payload bytes
//
// The parent field and the kind byte are what remain of an earlier delta
// format; readers reject a nonzero parent and any kind other than 1, so no
// image can name bytes it does not carry. Unchanged state costs nothing
// twice anyway: the capture path copies an unchanged component's chunk from
// the previous image instead of re-serializing it (cf. DMTCP's skipping of
// unchanged pages), and the repository stores each distinct payload once.
//
// Properties:
//  - Versioned: a reader rejects images whose major format version it does
//    not understand (no silent misparse of future layouts).
//  - Integrity-checked: each chunk carries a CRC32 of its payload; a flipped
//    bit anywhere is detected before any component sees the bytes.
//  - Exact: an accepted image re-serializes byte-identically from its chunk
//    table (ids are unique, nothing trails the last chunk).
//  - Forward compatible: chunks are looked up by id, so a reader skips
//    chunks it does not recognise — an older engine can restore the
//    components it knows from an image written by a newer one.

#ifndef TCSIM_SRC_SIM_IMAGE_H_
#define TCSIM_SRC_SIM_IMAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/checkpointable.h"

namespace tcsim {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`, computed eight
// bytes per step (slicing-by-8). Every chunk, segment record and journal
// record in the on-disk formats carries this checksum.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

inline constexpr uint32_t kImageMagic = 0x504B4354;  // "TCKP" little-endian
inline constexpr uint32_t kImageFormatVersion = 1;
inline constexpr uint32_t kImageFormatVersion2 = 2;

inline constexpr uint8_t kChunkKindPayload = 1;

// A non-owning view of contiguous payload bytes (parsed in place inside a
// serialized image; the image buffer must outlive the span).
struct ByteSpan {
  const uint8_t* data = nullptr;
  uint64_t size = 0;
};

// Builds a composite image from component chunks. Emits format v1 unless an
// image identity is set, in which case it emits v2.
class CheckpointImageBuilder {
 public:
  // Appends a payload chunk. Ids must be unique within one image. Both
  // arguments are taken by value and moved into place, so callers that hand
  // over rvalues pay zero payload copies. Computes the chunk's CRC32 here,
  // once; Serialize writes the stored value.
  void AddChunk(std::string id, std::vector<uint8_t> payload);

  // As above, for callers that already hold `crc` == Crc32(payload) (verified
  // on the way in). The value is trusted, not re-checked: a wrong CRC yields
  // an image every reader rejects.
  void AddChunk(std::string id, std::vector<uint8_t> payload, uint32_t crc);

  // As above, but borrows the payload instead of owning it: the bytes must
  // stay alive and unchanged until Serialize returns. Serialize copies them
  // straight into the image, so a chunk taken from another image or a
  // staging buffer is copied once.
  void AddChunk(std::string id, ByteSpan payload, uint32_t crc);

  // Serializes `c` into a payload chunk named by its checkpoint_id().
  void Add(const Checkpointable& c);

  // Switches the builder to format v2 with the given identity (the parent
  // field is written as 0).
  void SetImageId(uint64_t image_id);

  size_t chunk_count() const { return chunks_.size(); }

  // Serializes the envelope + all chunks, in insertion order. The output
  // buffer is sized exactly once (no geometric growth).
  std::vector<uint8_t> Serialize() const;

 private:
  struct PendingChunk {
    std::string id;
    std::vector<uint8_t> owned;  // empty for borrowed payloads
    ByteSpan borrowed;           // data null for owned payloads
    uint32_t crc = 0;

    ByteSpan payload() const {
      return borrowed.data != nullptr ? borrowed
                                      : ByteSpan{owned.data(), owned.size()};
    }
  };

  std::vector<PendingChunk> chunks_;
  bool v2_ = false;
  uint64_t image_id_ = 0;
};

// Zero-copy structural parse of a composite image (v1 or v2): the chunk
// table in file order, with payload *spans* into the caller's buffer instead
// of copies, and no CRC pass — the batched repository path verifies payload
// CRCs on its hashing pool, off the staging thread, so parsing here must
// cost O(chunk count), not O(bytes). Rejects every structural malformation:
// bad magic, unsupported version, truncation, a nonzero parent id, a chunk
// kind other than payload, duplicate ids, and bytes after the last chunk.
// The image bytes must outlive the view and its spans.
class CheckpointImageLiteView {
 public:
  struct Chunk {
    std::string id;
    ByteSpan payload;   // bytes inside the image buffer
    uint32_t crc = 0;   // declared CRC, not checked here
  };

  explicit CheckpointImageLiteView(const std::vector<uint8_t>& image);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }
  uint64_t image_id() const { return image_id_; }  // 0 for v1 images

  // Chunks in file order.
  const std::vector<Chunk>& chunks() const { return chunks_; }

 private:
  void Fail(const std::string& why);

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  uint64_t image_id_ = 0;
  std::vector<Chunk> chunks_;
};

// Parses and validates a composite image: the structural checks of
// CheckpointImageLiteView plus every chunk's CRC, then hands out owned
// copies of the payloads by id. Does not keep a reference to the image
// bytes.
class CheckpointImageView {
 public:
  explicit CheckpointImageView(const std::vector<uint8_t>& image);

  // False if the image was malformed (see CheckpointImageLiteView) or any
  // chunk failed its CRC. When false, error() says why and no chunk is
  // accessible.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  uint32_t format_version() const { return version_; }
  size_t chunk_count() const { return order_.size(); }

  // v2 identity; 0 for v1 images.
  uint64_t image_id() const { return image_id_; }

  bool HasChunk(const std::string& id) const;

  // Payload of chunk `id`. Must exist (check HasChunk first).
  const std::vector<uint8_t>& Chunk(const std::string& id) const;

  // CRC32 of chunk `id`, already checked against its bytes when the view was
  // built. Must exist (check HasChunk first).
  uint32_t ChunkCrc(const std::string& id) const;

  // All chunk ids in file order.
  const std::vector<std::string>& ChunkIds() const { return order_; }

  // Restores `c` from its chunk. Returns false (without touching `c`) if the
  // image is bad or lacks the chunk; returns false if the component's reader
  // ran out of bytes mid-restore (partial restores are reported, not
  // hidden).
  bool RestoreInto(Checkpointable& c) const;

 private:
  struct ParsedChunk {
    std::vector<uint8_t> payload;
    uint32_t crc;
  };

  bool ok_ = false;
  std::string error_;
  uint32_t version_ = 0;
  uint64_t image_id_ = 0;
  std::map<std::string, ParsedChunk> chunks_;
  std::vector<std::string> order_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_IMAGE_H_
