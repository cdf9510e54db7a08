// The universal checkpoint-image layer: container framing (magic, version,
// CRC, truncation), a seeded mutation sweep over both parsers,
// forward-compatible chunk lookup, and per-component save -> mutate ->
// restore -> save round trips that must be bit-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/dummynet/pipe.h"
#include "src/guest/node.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/image.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/storage/branch_store.h"
#include "src/storage/disk.h"

namespace tcsim {
namespace {

class DiscardSink : public PacketHandler {
 public:
  void HandlePacket(const Packet&) override {}
};

// A minimal component for container-level tests.
class Counter : public Checkpointable {
 public:
  explicit Counter(std::string id) : id_(std::move(id)) {}
  std::string checkpoint_id() const override { return id_; }
  void SaveState(ArchiveWriter* w) const override { w->Write<uint64_t>(value); }
  void RestoreState(ArchiveReader& r) override { value = r.Read<uint64_t>(); }
  uint64_t value = 0;

 private:
  std::string id_;
};

TEST(Crc32Test, MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

// The definition of the checksum: one reflected-polynomial step per bit.
// Crc32 must agree with it on every input, since images, segment records and
// journal records on disk all carry its value.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextUint64());
  }
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..256 cover the empty input, every tail length after the
  // eight-byte steps, and many steps; offsets 0..7 cover every alignment.
  const std::vector<uint8_t> bytes = RandomBytes(256 + 8, 7);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBitwiseReferenceOnOneMebibyte) {
  const std::vector<uint8_t> bytes = RandomBytes(1 << 20, 11);
  EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes.data(), bytes.size()));
}

TEST(ImageContainerTest, RoundTripsChunksThroughSerialization) {
  CheckpointImageBuilder builder;
  Counter a("a"), b("b");
  a.value = 17;
  b.value = 42;
  builder.Add(a);
  builder.Add(b);
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.format_version(), kImageFormatVersion);
  EXPECT_EQ(view.chunk_count(), 2u);

  Counter a2("a"), b2("b");
  EXPECT_TRUE(view.RestoreInto(a2));
  EXPECT_TRUE(view.RestoreInto(b2));
  EXPECT_EQ(a2.value, 17u);
  EXPECT_EQ(b2.value, 42u);
}

TEST(ImageContainerTest, RejectsBadMagic) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.Add(a);
  std::vector<uint8_t> image = builder.Serialize();
  image[0] ^= 0xFF;
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_FALSE(view.error().empty());
}

TEST(ImageContainerTest, RejectsUnsupportedFormatVersion) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.Add(a);
  std::vector<uint8_t> image = builder.Serialize();
  // The version field follows the u32 magic. Patch past format v2, the
  // newest supported.
  const uint32_t future = kImageFormatVersion2 + 1;
  std::memcpy(image.data() + sizeof(uint32_t), &future, sizeof(future));
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
}

TEST(ImageContainerTest, RejectsEveryTruncationPoint) {
  CheckpointImageBuilder builder;
  Counter a("component-with-a-name"), b("b");
  a.value = 7;
  builder.Add(a);
  builder.Add(b);
  const std::vector<uint8_t> image = builder.Serialize();
  // No prefix of a valid image is itself valid; none may crash (the
  // sanitize-preset run of this test is the no-UB acceptance check).
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    CheckpointImageView view(prefix);
    EXPECT_FALSE(view.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(ImageContainerTest, RejectsFlippedPayloadBit) {
  CheckpointImageBuilder builder;
  Counter a("a");
  a.value = 0x0123456789ABCDEFull;
  builder.Add(a);
  std::vector<uint8_t> image = builder.Serialize();
  // The payload is the last 8 bytes of the image; corrupt one of them.
  image[image.size() - 3] ^= 0x10;
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("CRC"), std::string::npos) << view.error();
}

TEST(ImageContainerTest, SuppliedCrcSerializesIdenticallyToComputedCrc) {
  const std::vector<uint8_t> first = RandomBytes(1000, 3);
  const std::vector<uint8_t> second = RandomBytes(13, 4);
  for (const bool v2 : {false, true}) {
    CheckpointImageBuilder computed, supplied, borrowed;
    if (v2) {
      computed.SetImageId(4);
      supplied.SetImageId(4);
      borrowed.SetImageId(4);
    }
    computed.AddChunk("first", first);
    computed.AddChunk("second", second);
    supplied.AddChunk("first", first, Crc32(first));
    supplied.AddChunk("second", second, Crc32(second));
    borrowed.AddChunk("first", ByteSpan{first.data(), first.size()},
                      Crc32(first));
    borrowed.AddChunk("second", ByteSpan{second.data(), second.size()},
                      Crc32(second));
    EXPECT_EQ(computed.Serialize(), supplied.Serialize()) << "v2 " << v2;
    EXPECT_EQ(computed.Serialize(), borrowed.Serialize()) << "v2 " << v2;
  }
}

TEST(ImageContainerTest, CorruptedPayloadIsRejectedByViewAndRepo) {
  const std::vector<uint8_t> payload = RandomBytes(64, 6);
  CheckpointImageBuilder builder;
  builder.SetImageId(1);
  builder.AddChunk("a", payload, Crc32(payload));
  const std::vector<uint8_t> image = builder.Serialize();

  // In memory: the view checks every chunk's CRC.
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() - 5] ^= 0x08;  // inside the only payload
  CheckpointImageView view(flipped);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("CRC"), std::string::npos) << view.error();

  // On disk: a payload byte flipped after the put is caught when the repo
  // reads it back, before the materialized image reuses the stored CRC.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "tcsim_image_corrupt")
          .string();
  std::filesystem::remove_all(dir);
  std::string error;
  auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
  ASSERT_NE(repo, nullptr) << error;
  const uint64_t handle = repo->PutImage(image);
  ASSERT_NE(handle, 0u) << repo->error();
  const std::string segment = dir + "/segment.1";
  const auto size = static_cast<long>(std::filesystem::file_size(segment));
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, size - 5, SEEK_SET);  // inside the only payload record
  const int c = std::fgetc(f);
  std::fseek(f, size - 5, SEEK_SET);
  std::fputc(c ^ 0x08, f);
  std::fclose(f);
  EXPECT_TRUE(repo->Materialize(handle).empty());
  EXPECT_NE(repo->error().find("CRC"), std::string::npos) << repo->error();
  repo.reset();
  std::filesystem::remove_all(dir);
}

TEST(ImageContainerTest, UnknownChunksAreSkipped) {
  CheckpointImageBuilder builder;
  Counter known("known");
  known.value = 5;
  builder.Add(known);
  builder.AddChunk("from.the.future", {1, 2, 3, 4});
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  Counter restored("known");
  EXPECT_TRUE(view.RestoreInto(restored));
  EXPECT_EQ(restored.value, 5u);
}

TEST(ImageContainerTest, MissingChunkLeavesComponentUntouched) {
  CheckpointImageBuilder builder;
  Counter a("a");
  builder.Add(a);
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok());
  Counter other("not-in-image");
  other.value = 99;
  EXPECT_FALSE(view.RestoreInto(other));
  EXPECT_EQ(other.value, 99u);
}

TEST(ImageContainerTest, ShortChunkReportsPartialRestore) {
  CheckpointImageBuilder builder;
  builder.AddChunk("a", {1, 2});  // Counter reads 8 bytes
  const std::vector<uint8_t> image = builder.Serialize();
  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok());
  Counter a("a");
  EXPECT_FALSE(view.RestoreInto(a));
}

// --- Format v2 ----------------------------------------------------------------

std::vector<uint8_t> PayloadOf(uint64_t value) {
  ArchiveWriter w;
  w.Write<uint64_t>(value);
  return w.Take();
}

// Byte offset of the v2 header's parent-id field: after magic, version and
// image id.
constexpr size_t kParentIdOffset = 4 + 4 + 8;

// A v2 image in the retired delta layout: chunk "a" with its payload, chunk
// "b" as a kind-2 reference (a 4-byte CRC pin into image `parent`). Built by
// hand, since no builder emits the kind any more.
std::vector<uint8_t> DeltaRefImage(uint64_t parent) {
  ArchiveWriter w;
  w.Write<uint32_t>(kImageMagic);
  w.Write<uint32_t>(kImageFormatVersion2);
  w.Write<uint64_t>(/*image id=*/2);
  w.Write<uint64_t>(parent);
  w.Write<uint64_t>(/*chunk count=*/2);
  const std::vector<uint8_t> a = PayloadOf(11);
  w.WriteString("a");
  w.Write<uint8_t>(kChunkKindPayload);
  w.Write<uint64_t>(a.size());
  w.Write<uint32_t>(Crc32(a));
  w.WriteBytes(a.data(), a.size());
  w.WriteString("b");
  w.Write<uint8_t>(/*delta-ref kind=*/2);
  w.Write<uint32_t>(Crc32(PayloadOf(20)));
  return w.Take();
}

TEST(DeltaImageTest, SelfContainedV2RoundTrips) {
  CheckpointImageBuilder builder;
  builder.SetImageId(5);
  Counter a("a");
  a.value = 17;
  builder.Add(a);
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.format_version(), kImageFormatVersion2);
  EXPECT_EQ(view.image_id(), 5u);
  uint64_t parent = ~uint64_t{0};
  std::memcpy(&parent, image.data() + kParentIdOffset, sizeof parent);
  EXPECT_EQ(parent, 0u);
  Counter a2("a");
  EXPECT_TRUE(view.RestoreInto(a2));
  EXPECT_EQ(a2.value, 17u);
}

TEST(DeltaImageTest, RejectsUnknownChunkKind) {
  CheckpointImageBuilder builder;
  builder.SetImageId(1);
  builder.AddChunk("a", PayloadOf(1));
  std::vector<uint8_t> image = builder.Serialize();
  // v2 header is magic u32 | version u32 | image id u64 | parent id u64 |
  // count u64; the first chunk's kind byte follows its length-prefixed id.
  const size_t kind_off = 4 + 4 + 8 + 8 + 8 + 8 + 1;
  ASSERT_EQ(image[kind_off], kChunkKindPayload);
  image[kind_off] = 7;
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("kind"), std::string::npos) << view.error();
  EXPECT_FALSE(CheckpointImageLiteView(image).ok());
}

TEST(DeltaImageTest, RejectsDuplicateChunkIds) {
  // In both formats: a later duplicate would vanish on re-serialization.
  for (const bool v2 : {false, true}) {
    CheckpointImageBuilder builder;
    if (v2) {
      builder.SetImageId(1);
    }
    builder.AddChunk("a", PayloadOf(1));
    builder.AddChunk("a", PayloadOf(2));
    const std::vector<uint8_t> image = builder.Serialize();
    CheckpointImageView view(image);
    EXPECT_FALSE(view.ok()) << "v2 " << v2;
    EXPECT_NE(view.error().find("duplicate"), std::string::npos)
        << view.error();
    EXPECT_FALSE(CheckpointImageLiteView(image).ok()) << "v2 " << v2;
  }
}

TEST(DeltaImageTest, RejectsDeltaRefWithoutParent) {
  const std::vector<uint8_t> image = DeltaRefImage(/*parent=*/0);
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("kind"), std::string::npos) << view.error();
  EXPECT_FALSE(CheckpointImageLiteView(image).ok());
}

TEST(DeltaImageTest, RejectsEveryTruncationPointOfV2) {
  CheckpointImageBuilder builder;
  builder.SetImageId(9);
  builder.AddChunk("payload-chunk", PayloadOf(7));
  builder.AddChunk("second-chunk", PayloadOf(8));
  const std::vector<uint8_t> image = builder.Serialize();
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    EXPECT_FALSE(CheckpointImageView(prefix).ok())
        << "prefix of " << len << " bytes accepted";
    EXPECT_FALSE(CheckpointImageLiteView(prefix).ok())
        << "prefix of " << len << " bytes accepted by the lite view";
  }
}

// The retired delta layout, in both of its marks — a kind-2 chunk, and a
// nonzero parent id on an otherwise self-contained image — is a parse error
// for both views and for the repository, which stays unchanged.
TEST(DeltaImageTest, DeltaRefsAndParentLinksAreRejectedEverywhere) {
  CheckpointImageBuilder builder;
  builder.SetImageId(2);
  builder.AddChunk("a", PayloadOf(11));
  builder.AddChunk("b", PayloadOf(20));
  std::vector<uint8_t> with_parent = builder.Serialize();
  with_parent[kParentIdOffset] = 1;
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> cases = {
      {"kind-2 chunk", DeltaRefImage(/*parent=*/1)},
      {"nonzero parent", with_parent},
  };

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "tcsim_image_delta_ref")
          .string();
  std::filesystem::remove_all(dir);
  std::string error;
  auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
  ASSERT_NE(repo, nullptr) << error;
  CheckpointImageBuilder parent;
  parent.SetImageId(1);
  parent.AddChunk("a", PayloadOf(10));
  parent.AddChunk("b", PayloadOf(20));
  ASSERT_NE(repo->PutImage(parent.Serialize()), 0u) << repo->error();
  const size_t images_before = repo->image_count();
  const uint64_t segment_before = repo->segment_bytes();

  for (const auto& [name, image] : cases) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(CheckpointImageView(image).ok());
    EXPECT_FALSE(CheckpointImageLiteView(image).ok());
    EXPECT_EQ(repo->PutImage(image), 0u);
    EXPECT_NE(repo->error().find("malformed"), std::string::npos)
        << repo->error();
    EXPECT_EQ(repo->image_count(), images_before);
    EXPECT_EQ(repo->segment_bytes(), segment_before);
  }
  repo.reset();
  std::filesystem::remove_all(dir);
}

// --- Seeded mutation sweep ----------------------------------------------------

// A well-formed image plus the offsets of its count and length fields, so
// mutations can aim at them.
struct SweepImage {
  std::vector<uint8_t> bytes;
  size_t count_offset = 0;
  std::vector<size_t> length_offsets;
};

SweepImage BuildSweepImage(bool v2, size_t chunks, std::mt19937_64& rng) {
  CheckpointImageBuilder builder;
  SweepImage out;
  size_t offset = 4 + 4;  // magic, version
  if (v2) {
    builder.SetImageId(1 + rng() % 1000);
    offset += 8 + 8;  // image id, parent id
  }
  out.count_offset = offset;
  offset += 8;
  for (size_t c = 0; c < chunks; ++c) {
    // Ids one bit apart ("c0", "c1", ...), so flips can forge duplicates.
    const std::string id = "c" + std::to_string(c);
    const std::vector<uint8_t> payload = RandomBytes(rng() % 24, rng());
    offset += 8 + id.size() + (v2 ? 1 : 0);
    out.length_offsets.push_back(offset);
    offset += 8 + 4 + payload.size();
    builder.AddChunk(id, payload);
  }
  out.bytes = builder.Serialize();
  EXPECT_EQ(offset, out.bytes.size());
  return out;
}

std::vector<uint8_t> Mutate(const SweepImage& image, std::mt19937_64& rng) {
  std::vector<uint8_t> m = image.bytes;
  const auto put_u64 = [&m](size_t at, uint64_t v) {
    std::memcpy(m.data() + at, &v, sizeof v);
  };
  const auto get_u64 = [&m](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, m.data() + at, sizeof v);
    return v;
  };
  // Field corruptions: off by one either way, zero, huge, or random.
  const auto corrupt = [&](size_t at) {
    const uint64_t old = get_u64(at);
    const uint64_t choices[] = {old + 1, old - 1, 0, ~uint64_t{0}, rng()};
    put_u64(at, choices[rng() % 5]);
  };
  switch (rng() % 5) {
    case 0:
    case 1:  // one bit flip anywhere
      m[rng() % m.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      break;
    case 2:  // one byte inserted anywhere, the end included
      m.insert(m.begin() + static_cast<long>(rng() % (m.size() + 1)),
               static_cast<uint8_t>(rng()));
      break;
    case 3:  // one byte deleted
      m.erase(m.begin() + static_cast<long>(rng() % m.size()));
      break;
    default:  // the chunk count, or one chunk's payload length
      if (rng() % 2 == 0) {
        corrupt(image.count_offset);
      } else {
        corrupt(image.length_offsets[rng() % image.length_offsets.size()]);
      }
      break;
  }
  return m;
}

// Every input is either rejected by both parsers, or accepted by both with
// the same chunk table and re-serialized byte-identically from it. The lite
// view checks no CRCs by design; its verdict here includes the per-chunk CRC
// check the repository applies to what it parses.
TEST(ImageMutationSweepTest, EveryMutantIsRejectedOrRoundTripsExactly) {
  std::mt19937_64 rng(16);
  size_t inputs = 0, accepted = 0, failures = 0;
  auto check = [&](const std::vector<uint8_t>& input, const std::string& what) {
    ++inputs;
    const CheckpointImageView view(input);
    const CheckpointImageLiteView lite(input);
    bool lite_ok = lite.ok();
    for (const CheckpointImageLiteView::Chunk& c : lite.chunks()) {
      lite_ok = lite_ok && Crc32(c.payload.data, c.payload.size) == c.crc;
    }
    std::string problem;
    if (view.ok() != lite_ok) {
      problem = "view " + std::to_string(view.ok()) + " vs lite " +
                std::to_string(lite_ok) + " (" + view.error() + " / " +
                lite.error() + ")";
    } else if (view.ok()) {
      ++accepted;
      CheckpointImageBuilder rebuilt;
      if (view.format_version() == kImageFormatVersion2) {
        rebuilt.SetImageId(view.image_id());
      }
      bool same_table = view.format_version() == lite.format_version() &&
                        view.image_id() == lite.image_id() &&
                        view.ChunkIds().size() == lite.chunks().size();
      for (size_t i = 0; same_table && i < lite.chunks().size(); ++i) {
        const CheckpointImageLiteView::Chunk& c = lite.chunks()[i];
        const std::vector<uint8_t>& bytes = view.Chunk(view.ChunkIds()[i]);
        same_table = view.ChunkIds()[i] == c.id &&
                     view.ChunkCrc(c.id) == c.crc &&
                     bytes == std::vector<uint8_t>(
                                  c.payload.data, c.payload.data + c.payload.size);
        rebuilt.AddChunk(c.id, bytes, view.ChunkCrc(c.id));
      }
      if (!same_table) {
        problem = "chunk tables differ";
      } else if (rebuilt.Serialize() != input) {
        problem = "re-serialization differs";
      }
    }
    if (!problem.empty() && ++failures <= 5) {
      ADD_FAILURE() << what << ": " << problem;
    }
  };

  for (const bool v2 : {false, true}) {
    for (size_t chunks = 1; chunks <= 6; ++chunks) {
      for (int variant = 0; variant < 2; ++variant) {
        const SweepImage image = BuildSweepImage(v2, chunks, rng);
        const std::string name = std::string(v2 ? "v2" : "v1") + " with " +
                                 std::to_string(chunks) + " chunks";
        check(image.bytes, name);
        for (int k = 0; k < 450; ++k) {
          check(Mutate(image, rng), name + ", mutant " + std::to_string(k));
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GE(inputs, 10000u);
  // The sweep reached both verdicts beyond the unmutated originals: some
  // mutants (flipped image ids, renamed chunks) are valid images.
  EXPECT_GT(accepted, 24u);
  EXPECT_LT(accepted, inputs / 2);
}

// --- Per-component round trips ------------------------------------------------

std::vector<uint8_t> SaveOf(const Checkpointable& c) {
  ArchiveWriter w;
  c.SaveState(&w);
  return w.Take();
}

TEST(ComponentRoundTripTest, RngRestoreReproducesSequence) {
  Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    rng.NextUint64();
  }
  ArchiveWriter w;
  rng.Save(&w);
  const std::vector<uint8_t> saved = w.Take();
  std::vector<uint64_t> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(rng.NextUint64());
  }

  Rng other(999);
  ArchiveReader r(saved);
  other.Restore(r);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(other.NextUint64(), expected[i]);
  }
}

TEST(ComponentRoundTripTest, PipeSaveRestoreSaveIsBitIdentical) {
  Simulator sim;
  DiscardSink sink;
  PipeConfig cfg;
  cfg.bandwidth_bps = 10'000'000;
  cfg.delay = 20 * kMillisecond;
  cfg.queue_limit_packets = 10;
  Pipe pipe(&sim, Rng(1), cfg, &sink);
  for (uint64_t i = 0; i < 5; ++i) {
    Packet pkt;
    pkt.id = i;
    pkt.src = 1;
    pkt.dst = 2;
    pkt.size_bytes = 1250;
    pipe.HandlePacket(pkt);
  }
  sim.RunUntil(3 * kMillisecond);
  pipe.Suspend();
  ArchiveWriter w1;
  pipe.Save(&w1);
  const std::vector<uint8_t> first = w1.Take();

  // Mutate: a fresh pipe with different config and traffic, then restore.
  DiscardSink sink2;
  Pipe other(&sim, Rng(77), PipeConfig{}, &sink2);
  Packet extra;
  extra.id = 100;
  extra.size_bytes = 500;
  other.HandlePacket(extra);
  ArchiveReader r(first);
  other.ResetForRestore();
  other.Restore(r);
  ASSERT_TRUE(r.ok());

  ArchiveWriter w2;
  other.Save(&w2);
  EXPECT_EQ(w2.data(), first);
}

TEST(ComponentRoundTripTest, BranchStoreSaveRestoreSaveIsBitIdentical) {
  Simulator sim;
  Disk disk(&sim, DiskParams{});
  BranchStore store(&disk, 4096);
  std::vector<uint64_t> block(8, 0xAB);
  bool done = false;
  store.Write(10, block, [&] { done = true; });
  store.Write(700, block, [&] {});
  sim.Run();
  ASSERT_TRUE(done);
  const std::vector<uint8_t> first = SaveOf(store);

  BranchStore other(&disk, 4096);
  std::vector<uint64_t> noise(8, 0xCD);
  other.Write(3, noise, [] {});
  sim.Run();
  ArchiveReader r(first);
  other.RestoreState(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SaveOf(other), first);
}

// Every component an experiment node registers must survive
// save -> restore -> save with bit-identical serialization; this is the
// format-stability guarantee image-based rollback depends on.
TEST(ComponentRoundTripTest, AllNodeComponentsRoundTripBitIdentically) {
  Simulator sim;
  NodeConfig cfg;
  cfg.name = "rt-node";
  cfg.id = 1;
  cfg.domain.memory_bytes = 64ull * 1024 * 1024;
  ExperimentNode node(&sim, Rng(5), cfg);
  sim.RunUntil(2 * kSecond);  // accumulate NTP, runstate and disk history

  std::vector<Checkpointable*> components;
  node.AppendCheckpointables(&components);
  ASSERT_GE(components.size(), 13u);
  for (Checkpointable* c : components) {
    const std::vector<uint8_t> first = SaveOf(*c);
    ArchiveReader r(first);
    c->RestoreState(r);
    EXPECT_TRUE(r.ok()) << c->checkpoint_id();
    EXPECT_EQ(SaveOf(*c), first) << c->checkpoint_id();
  }
}

}  // namespace
}  // namespace tcsim
