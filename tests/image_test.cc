// The universal checkpoint-image layer: container framing (magic, version,
// CRC, truncation), forward-compatible chunk lookup, and per-component
// save -> mutate -> restore -> save round trips that must be bit-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/dummynet/pipe.h"
#include "src/guest/node.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/image.h"
#include "src/sim/image_store.h"
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
  // The version field follows the u32 magic. Patch past the delta format —
  // version 2 is supported now.
  const uint32_t future = kImageFormatVersionDelta + 1;
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
    CheckpointImageBuilder computed, supplied;
    if (v2) {
      computed.SetDeltaHeader(4, 0);
      supplied.SetDeltaHeader(4, 0);
    }
    computed.AddChunk("first", first);
    computed.AddChunk("second", second);
    supplied.AddChunk("first", first, Crc32(first));
    supplied.AddChunk("second", second, Crc32(second));
    EXPECT_EQ(computed.Serialize(), supplied.Serialize()) << "v2 " << v2;
  }
}

TEST(ImageContainerTest, CorruptedPayloadIsRejectedByViewAndRepo) {
  const std::vector<uint8_t> payload = RandomBytes(64, 6);
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(1, 0);
  builder.AddChunk("a", payload, Crc32(payload));
  const std::vector<uint8_t> image = builder.Serialize();

  // In memory: the view checks every chunk's CRC, and ImageStore::Put takes
  // its chunk CRCs only from a view that passed.
  std::vector<uint8_t> flipped = image;
  flipped[flipped.size() - 5] ^= 0x08;  // inside the only payload
  CheckpointImageView view(flipped);
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("CRC"), std::string::npos) << view.error();
  ImageStore store;
  EXPECT_EQ(store.Put(flipped), 0u);

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

// --- Format v2 (delta images) --------------------------------------------------

std::vector<uint8_t> PayloadOf(uint64_t value) {
  ArchiveWriter w;
  w.Write<uint64_t>(value);
  return w.Take();
}

TEST(DeltaImageTest, SelfContainedV2RoundTrips) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(/*image_id=*/5, /*parent_id=*/0);
  Counter a("a");
  a.value = 17;
  builder.Add(a);
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.format_version(), kImageFormatVersionDelta);
  EXPECT_EQ(view.image_id(), 5u);
  EXPECT_EQ(view.parent_id(), 0u);
  EXPECT_FALSE(view.is_delta());
  Counter a2("a");
  EXPECT_TRUE(view.RestoreInto(a2));
  EXPECT_EQ(a2.value, 17u);
}

TEST(DeltaImageTest, DeltaRefsParseWithIdentityAndCrc) {
  const std::vector<uint8_t> parent_payload = PayloadOf(17);
  const uint32_t parent_crc = Crc32(parent_payload);

  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(/*image_id=*/6, /*parent_id=*/5);
  builder.AddChunk("changed", PayloadOf(18));
  builder.AddDeltaChunk("same", parent_crc);
  const std::vector<uint8_t> image = builder.Serialize();

  CheckpointImageView view(image);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.image_id(), 6u);
  EXPECT_EQ(view.parent_id(), 5u);
  EXPECT_TRUE(view.is_delta());
  EXPECT_EQ(view.delta_ref_count(), 1u);
  EXPECT_TRUE(view.HasChunk("changed"));
  EXPECT_EQ(view.ChunkCrc("changed"), Crc32(PayloadOf(18)));
  EXPECT_FALSE(view.HasChunk("same"));  // a delta ref is not readable payload
  EXPECT_TRUE(view.HasDeltaRef("same"));
  EXPECT_EQ(view.DeltaRefCrc("same"), parent_crc);
  ASSERT_EQ(view.ChunkIds().size(), 2u);
  EXPECT_EQ(view.ChunkIds()[0], "changed");
  EXPECT_EQ(view.ChunkIds()[1], "same");
}

TEST(DeltaImageTest, RejectsUnknownChunkKind) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(1, 0);
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
}

TEST(DeltaImageTest, RejectsDuplicateChunkIds) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(1, 0);
  builder.AddChunk("a", PayloadOf(1));
  builder.AddChunk("a", PayloadOf(2));
  CheckpointImageView view(builder.Serialize());
  EXPECT_FALSE(view.ok());
  EXPECT_NE(view.error().find("duplicate"), std::string::npos) << view.error();
}

TEST(DeltaImageTest, RejectsDeltaRefWithoutParent) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(/*image_id=*/6, /*parent_id=*/5);
  builder.AddDeltaChunk("same", 0xDEADBEEF);
  std::vector<uint8_t> image = builder.Serialize();
  // Zero out the parent-id field (offset 16, after magic and version): the
  // delta ref is now unresolvable and the view must say so.
  std::memset(image.data() + 16, 0, sizeof(uint64_t));
  CheckpointImageView view(image);
  EXPECT_FALSE(view.ok());
}

TEST(DeltaImageTest, RejectsEveryTruncationPointOfV2) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(/*image_id=*/9, /*parent_id=*/8);
  builder.AddChunk("payload-chunk", PayloadOf(7));
  builder.AddDeltaChunk("delta-ref-chunk", 0x12345678);
  const std::vector<uint8_t> image = builder.Serialize();
  for (size_t len = 0; len < image.size(); ++len) {
    std::vector<uint8_t> prefix(image.begin(), image.begin() + len);
    CheckpointImageView view(prefix);
    EXPECT_FALSE(view.ok()) << "prefix of " << len << " bytes accepted";
  }
}

// --- ImageStore (parent chains) -------------------------------------------------

std::vector<uint8_t> FullImage(uint64_t id, uint64_t a, uint64_t b) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(id, 0);
  builder.AddChunk("a", PayloadOf(a));
  builder.AddChunk("b", PayloadOf(b));
  return builder.Serialize();
}

// Delta of FullImage: "a" changed to `a`, "b" unchanged from the parent whose
// "b" payload carried `parent_b`.
std::vector<uint8_t> DeltaImage(uint64_t id, uint64_t parent, uint64_t a,
                                uint64_t parent_b) {
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(id, parent);
  builder.AddChunk("a", PayloadOf(a));
  builder.AddDeltaChunk("b", Crc32(PayloadOf(parent_b)));
  return builder.Serialize();
}

TEST(ImageStoreTest, MaterializesDeltaChainsToFullImages) {
  ImageStore store;
  ASSERT_EQ(store.Put(FullImage(1, 10, 20)), 1u) << store.error();
  ASSERT_EQ(store.Put(DeltaImage(2, 1, 11, 20)), 2u) << store.error();
  ASSERT_EQ(store.Put(DeltaImage(3, 2, 12, 20)), 3u) << store.error();
  EXPECT_EQ(store.ParentOf(3), 2u);
  EXPECT_EQ(store.DeltaRefCount(3), 1u);

  const std::vector<uint8_t> full = store.Materialize(3);
  CheckpointImageView view(full);
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_EQ(view.image_id(), 3u);
  EXPECT_EQ(view.parent_id(), 0u);
  EXPECT_FALSE(view.is_delta());
  Counter a("a"), b("b");
  EXPECT_TRUE(view.RestoreInto(a));
  EXPECT_TRUE(view.RestoreInto(b));
  EXPECT_EQ(a.value, 12u);  // from the newest capture
  EXPECT_EQ(b.value, 20u);  // resolved through the chain to image 1
}

TEST(ImageStoreTest, AcceptsV1ImagesWithAssignedIds) {
  CheckpointImageBuilder builder;  // no delta header: emits v1
  builder.AddChunk("a", PayloadOf(10));
  ImageStore store;
  const uint64_t id = store.Put(builder.Serialize());
  ASSERT_NE(id, 0u) << store.error();
  EXPECT_EQ(store.ParentOf(id), 0u);
  CheckpointImageView view(store.Materialize(id));
  ASSERT_TRUE(view.ok()) << view.error();
  EXPECT_TRUE(view.HasChunk("a"));
}

TEST(ImageStoreTest, RejectsMissingParent) {
  ImageStore store;
  EXPECT_EQ(store.Put(DeltaImage(2, 99, 11, 20)), 0u);
  EXPECT_NE(store.error().find("parent"), std::string::npos) << store.error();
  EXPECT_EQ(store.image_count(), 0u);
}

TEST(ImageStoreTest, RejectsStaleParentCrc) {
  ImageStore store;
  ASSERT_EQ(store.Put(FullImage(1, 10, 20)), 1u) << store.error();
  // Delta claims "b" is unchanged from a parent whose "b" held 21 — but the
  // stored parent's "b" holds 20. The chain is stale; reject, don't resolve.
  EXPECT_EQ(store.Put(DeltaImage(2, 1, 11, 21)), 0u);
  EXPECT_NE(store.error().find("stale"), std::string::npos) << store.error();
  EXPECT_EQ(store.image_count(), 1u);
  // The same holds one link further down, where the parent's "b" was itself
  // a delta ref and its stored CRC came from image 1's verified chunk.
  ASSERT_EQ(store.Put(DeltaImage(2, 1, 11, 20)), 2u) << store.error();
  EXPECT_EQ(store.Put(DeltaImage(3, 2, 12, 21)), 0u);
  EXPECT_NE(store.error().find("stale"), std::string::npos) << store.error();
  EXPECT_EQ(store.image_count(), 2u);
}

TEST(ImageStoreTest, RejectsDeltaRefAbsentInParent) {
  ImageStore store;
  ASSERT_EQ(store.Put(FullImage(1, 10, 20)), 1u) << store.error();
  CheckpointImageBuilder builder;
  builder.SetDeltaHeader(2, 1);
  builder.AddDeltaChunk("no-such-chunk", 0x1111);
  EXPECT_EQ(store.Put(builder.Serialize()), 0u);
  EXPECT_NE(store.error().find("absent"), std::string::npos) << store.error();
}

TEST(ImageStoreTest, RejectsDuplicateImageId) {
  ImageStore store;
  ASSERT_EQ(store.Put(FullImage(1, 10, 20)), 1u) << store.error();
  EXPECT_EQ(store.Put(FullImage(1, 30, 40)), 0u);
  EXPECT_NE(store.error().find("duplicate"), std::string::npos) << store.error();
}

TEST(ImageStoreTest, PrunedChainStaysMaterializable) {
  ImageStore store;
  ASSERT_EQ(store.Put(FullImage(1, 10, 20)), 1u) << store.error();
  ASSERT_EQ(store.Put(DeltaImage(2, 1, 11, 20)), 2u) << store.error();
  store.PruneExcept(2);
  EXPECT_EQ(store.image_count(), 1u);
  EXPECT_FALSE(store.Has(1));
  // Resolution happened at Put, so the survivor still materializes fully.
  CheckpointImageView view(store.Materialize(2));
  ASSERT_TRUE(view.ok()) << view.error();
  Counter b("b");
  EXPECT_TRUE(view.RestoreInto(b));
  EXPECT_EQ(b.value, 20u);
  // But a new delta naming the pruned image as parent is a broken chain.
  EXPECT_EQ(store.Put(DeltaImage(3, 1, 12, 20)), 0u);
  EXPECT_NE(store.error().find("parent"), std::string::npos) << store.error();
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
