// The durable checkpoint repository: put/materialize byte-fidelity against
// the images the tests built from their own value maps, content dedup,
// refcount accounting and GC
// with epoch switch, and crash recovery — including an every-byte truncation
// sweep of both the journal and the segment (the sanitize-preset run of this
// file is the no-UB durability acceptance check).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/checkpoint/epoch_coordinator.h"
#include "src/net/topology.h"
#include "src/repo/checkpoint_repo.h"
#include "src/repo/io_fault.h"
#include "src/repo/repo_format.h"
#include "src/sim/archive.h"
#include "src/sim/image.h"
#include "src/timetravel/basic_run.h"
#include "src/timetravel/checkpoint_tree.h"

namespace tcsim {
namespace {

namespace fs = std::filesystem;

// A fresh directory per test, removed on teardown.
class RepoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("tcsim_repo_") + info->test_suite_name() + "_" +
             info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<CheckpointRepo> OpenRepo() {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, RepoOptions{}, &error);
    EXPECT_NE(repo, nullptr) << error;
    return repo;
  }

  std::string dir_;
};

std::vector<uint8_t> PayloadOf(uint64_t value) {
  ArchiveWriter w;
  w.Write<uint64_t>(value);
  return w.Take();
}

// A self-contained v2 image with two payload chunks.
std::vector<uint8_t> FullImage(uint64_t id, uint64_t a, uint64_t b) {
  CheckpointImageBuilder builder;
  builder.SetImageId(id);
  builder.AddChunk("a", PayloadOf(a));
  builder.AddChunk("b", PayloadOf(b));
  return builder.Serialize();
}

// --- Put / Materialize fidelity ------------------------------------------------

TEST_F(RepoTest, MaterializeReturnsThePutBytes) {
  // Three generations from one value map: "a" changes every generation, "b"
  // never does. Materialize must return exactly the put bytes, and content
  // addressing must make every later put append exactly its changed payload
  // ("a"): the unchanged "b" dedups to the first generation's record.
  const std::map<uint64_t, std::pair<uint64_t, uint64_t>> values = {
      {1, {10, 20}}, {2, {11, 20}}, {3, {12, 20}}};
  auto repo = OpenRepo();

  const uint64_t payload = PayloadOf(0).size();
  std::vector<uint64_t> handles;
  for (const auto& [id, v] : values) {
    const uint64_t physical_before = repo->physical_put_bytes();
    const uint64_t segment_before = repo->segment_bytes();
    const uint64_t handle = repo->PutImage(FullImage(id, v.first, v.second));
    ASSERT_NE(handle, 0u) << repo->error();
    handles.push_back(handle);
    const uint64_t changed = id == 1 ? 2 : 1;
    EXPECT_EQ(repo->physical_put_bytes() - physical_before, changed * payload)
        << "generation " << id;
    EXPECT_EQ(repo->segment_bytes() - segment_before,
              changed * (kSegmentRecordOverhead + payload))
        << "generation " << id;
  }
  for (const auto& [id, v] : values) {
    EXPECT_EQ(repo->Materialize(handles[id - 1]),
              FullImage(id, v.first, v.second));
  }
}

TEST_F(RepoTest, DedupStoresSharedPayloadsOnce) {
  auto repo = OpenRepo();
  // Two unrelated images sharing chunk contents: payload bytes land once.
  ASSERT_NE(repo->PutImage(FullImage(1, 10, 20)), 0u) << repo->error();
  const uint64_t physical_after_first = repo->physical_put_bytes();
  ASSERT_NE(repo->PutImage(FullImage(2, 10, 20)), 0u) << repo->error();
  EXPECT_EQ(repo->physical_put_bytes(), physical_after_first);
  EXPECT_EQ(repo->logical_put_bytes(), 2 * physical_after_first);
}

TEST_F(RepoTest, RejectsBadPuts) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(1, 10, 20));
  ASSERT_NE(h1, 0u);

  const uint64_t segment_before = repo->segment_bytes();

  // Garbage bytes.
  EXPECT_EQ(repo->PutImage(std::vector<uint8_t>{1, 2, 3}), 0u);
  EXPECT_FALSE(repo->error().empty());
  // An image naming a parent, even a stored one: images carry every chunk.
  std::vector<uint8_t> with_parent = FullImage(2, 11, 20);
  with_parent[16] = 1;  // parent id field, after magic, version and image id
  EXPECT_EQ(repo->PutImage(with_parent), 0u);
  EXPECT_NE(repo->error().find("parent"), std::string::npos) << repo->error();
  // Rejections leave the repository unchanged.
  EXPECT_EQ(repo->image_count(), 1u);
  EXPECT_EQ(repo->segment_bytes(), segment_before);
}

// --- Retire / GC -------------------------------------------------------------

TEST_F(RepoTest, RetiringAParentLeavesItsSuccessorMaterializable) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(1, 10, 20));
  const uint64_t h2 = repo->PutImage(FullImage(2, 11, 20));
  ASSERT_NE(h2, 0u) << repo->error();

  ASSERT_TRUE(repo->RetireImage(h1));
  EXPECT_FALSE(repo->IsLive(h1));
  EXPECT_TRUE(repo->Materialize(h1).empty());  // retired: not materializable
  // ...but its successor holds every chunk it needs.
  EXPECT_EQ(repo->Materialize(h2), FullImage(2, 11, 20)) << repo->error();
  // The parent-only payload ("a" = 10) is garbage now; the shared "b" is not.
  EXPECT_EQ(repo->garbage_payload_bytes(),
            kSegmentRecordOverhead + PayloadOf(10).size());

  // Double retire fails; retiring the last live image orphans everything.
  EXPECT_FALSE(repo->RetireImage(h1));
  ASSERT_TRUE(repo->RetireImage(h2));
  EXPECT_GT(repo->garbage_payload_bytes(), 0u);
  EXPECT_EQ(repo->live_payload_bytes(), 0u);
}

TEST_F(RepoTest, GcReclaimsUnreferencedPayloadsAndSurvivesReopen) {
  uint64_t h2 = 0;
  {
    auto repo = OpenRepo();
    const uint64_t h1 = repo->PutImage(FullImage(1, 10, 20));
    h2 = repo->PutImage(FullImage(2, 11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
    ASSERT_TRUE(repo->RetireImage(h1));
    ASSERT_GT(repo->garbage_payload_bytes(), 0u);

    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
    EXPECT_GT(gc.reclaimed_bytes, 0u);
    EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
    EXPECT_FALSE(repo->Has(h1));  // dropped entirely
    EXPECT_EQ(repo->Materialize(h2), FullImage(2, 11, 20));
  }
  // The GC'd epoch is what a fresh process opens.
  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  EXPECT_EQ(repo->live_image_count(), 1u);
  EXPECT_EQ(repo->Materialize(h2), FullImage(2, 11, 20));
  // Handles are never reused, even though the GC dropped records.
  const uint64_t h3 = repo->PutImage(FullImage(7, 1, 2));
  EXPECT_GT(h3, h2);
}

// --- Randomized lifecycle ----------------------------------------------------

// 200 seeded operations over a small payload alphabet (so dedup hits are
// common) and a small live set (so payloads often lose their last
// reference): full puts, next-generation puts, multi-image batches, retires,
// GC passes and reopens. Every image is built from the test's own value map,
// and Materialize must return exactly the put bytes.
// After each operation the repository's running accounting must equal a
// from-scratch recount of its definition, and a reopen must reproduce the
// same values.
TEST_F(RepoTest, RandomizedLifecycleKeepsRefcountsExact) {
  constexpr size_t kChunks = 4;
  constexpr uint64_t kAlphabet = 16;
  constexpr size_t kMaxLive = 8;
  std::mt19937_64 rng(15);
  std::map<uint64_t, std::vector<uint8_t>> images;  // image id -> put bytes
  std::map<uint64_t, std::vector<uint64_t>> values;  // image id -> chunks
  std::map<uint64_t, uint64_t> live;                 // handle -> image id
  uint64_t next_id = 1;
  auto repo = OpenRepo();

  // Builds one image — fresh values, or (parent != 0) `parent`'s values
  // with one chunk rewritten — and returns its id.
  auto add_image = [&](uint64_t parent) {
    const uint64_t id = next_id++;
    CheckpointImageBuilder builder;
    builder.SetImageId(id);
    std::vector<uint64_t> v(kChunks);
    const size_t rewrite = rng() % kChunks;
    for (size_t c = 0; c < kChunks; ++c) {
      v[c] = parent == 0 || c == rewrite ? rng() % kAlphabet
                                         : values.at(parent)[c];
      builder.AddChunk("c" + std::to_string(c), PayloadOf(v[c]));
    }
    images[id] = builder.Serialize();
    values[id] = v;
    return id;
  };
  auto random_live = [&] {
    auto it = live.begin();
    std::advance(it, rng() % live.size());
    return it;
  };

  struct Accounting {
    uint64_t live = 0;
    uint64_t garbage = 0;
    uint64_t segment = 0;
    bool operator==(const Accounting&) const = default;
  };
  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    std::vector<uint64_t> handles;
    std::set<ContentKey> keys;
    for (const auto& [handle, id] : live) {
      handles.push_back(handle);
      EXPECT_EQ(repo->Materialize(handle), images.at(id))
          << "handle " << handle;
      for (const uint64_t v : values.at(id)) {
        keys.insert(ContentKeyOf(PayloadOf(v)));
      }
    }
    EXPECT_EQ(repo->LiveHandles(), handles);
    uint64_t recount = 0;
    for (const ContentKey& key : keys) {
      recount += kSegmentRecordOverhead + key.size;
    }
    EXPECT_EQ(repo->live_payload_bytes(), recount);
    EXPECT_EQ(repo->garbage_payload_bytes(),
              repo->segment_bytes() - kSegmentHeaderBytes -
                  repo->live_payload_bytes());
    return Accounting{repo->live_payload_bytes(),
                      repo->garbage_payload_bytes(), repo->segment_bytes()};
  };

  std::map<std::string, int> ops;
  for (int step = 0; step < 200; ++step) {
    // Puts and batches give way to retires once kMaxLive images are live,
    // so retires keep dropping payloads to zero references.
    uint64_t roll = rng() % 100;
    if (roll < 65 && live.size() >= kMaxLive) {
      roll = 65;
    }
    std::string op;
    if (roll < 50) {
      const bool full = roll < 20 || live.empty();
      op = full ? "put full" : "put generation";
      const uint64_t id = add_image(full ? 0 : random_live()->second);
      const uint64_t handle = repo->PutImage(images.at(id));
      ASSERT_NE(handle, 0u) << repo->error();
      live[handle] = id;
    } else if (roll < 65) {
      // Generations may build on live images or on earlier entries of the
      // same batch: self-contained, neither needs the other at commit.
      op = "batch";
      auto batch = repo->BeginBatch();
      std::vector<uint64_t> ids;
      const size_t n = 2 + rng() % 3;
      for (size_t i = 0; i < n; ++i) {
        uint64_t parent = 0;
        if (rng() % 2 == 0 && !live.empty()) {
          parent = random_live()->second;
        } else if (rng() % 2 == 0 && !ids.empty()) {
          parent = ids[rng() % ids.size()];
        }
        ids.push_back(add_image(parent));
        batch->Stage(std::vector<uint8_t>(images.at(ids.back())));
      }
      const auto result = repo->CommitBatch(std::move(batch));
      ASSERT_TRUE(result.ok) << result.error;
      for (size_t i = 0; i < n; ++i) {
        live[result.handles[i]] = ids[i];
      }
    } else if (roll < 85) {
      if (live.empty()) {
        continue;
      }
      op = "retire";
      const auto it = random_live();
      ASSERT_TRUE(repo->RetireImage(it->first)) << repo->error();
      live.erase(it);
    } else if (roll < 93) {
      op = "gc";
      ASSERT_TRUE(repo->CollectGarbage().ok) << repo->error();
      EXPECT_EQ(repo->garbage_payload_bytes(), 0u);
    } else {
      op = "reopen";
      const Accounting before = check("step " + std::to_string(step));
      repo.reset();
      repo = OpenRepo();
      ASSERT_NE(repo, nullptr);
      EXPECT_TRUE(check("reopen at step " + std::to_string(step)) == before);
    }
    ++ops[op];
    check("step " + std::to_string(step) + " (" + op + ")");
  }
  // The seed exercised every operation.
  for (const char* op : {"put full", "put generation", "batch", "retire", "gc",
                         "reopen"}) {
    EXPECT_GT(ops[op], 0) << op;
  }
}

// --- Recovery ------------------------------------------------------------------

TEST_F(RepoTest, ReopenContinuesWhereTheLastProcessStopped) {
  uint64_t h1 = 0, h2 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(1, 10, 20));
    h2 = repo->PutImage(FullImage(2, 11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
  }
  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  EXPECT_EQ(repo->LiveHandles(), (std::vector<uint64_t>{h1, h2}));
  EXPECT_EQ(repo->Materialize(h1), FullImage(1, 10, 20));
  EXPECT_EQ(repo->Materialize(h2), FullImage(2, 11, 20));
  // The next generation dedups against payloads stored before the restart:
  // only its changed "a" is appended.
  const uint64_t h3 = repo->PutImage(FullImage(3, 12, 20));
  ASSERT_NE(h3, 0u) << repo->error();
  EXPECT_EQ(repo->physical_put_bytes(), PayloadOf(12).size());
  EXPECT_EQ(repo->Materialize(h3), FullImage(3, 12, 20));
}

TEST_F(RepoTest, TornJournalTailIsDiscarded) {
  uint64_t h1 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(1, 10, 20));
    ASSERT_NE(h1, 0u);
  }
  // A crash mid-append leaves a torn record at the tail.
  const std::string journal = dir_ + "/journal.1";
  std::FILE* f = std::fopen(journal.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint8_t garbage[] = {0x54, 0x4A, 0x52, 0x43, 0x01, 0xFF, 0xFF};
  std::fwrite(garbage, 1, sizeof garbage, f);
  std::fclose(f);

  auto repo = OpenRepo();
  ASSERT_NE(repo, nullptr);
  EXPECT_TRUE(repo->IsLive(h1));
  EXPECT_FALSE(repo->Materialize(h1).empty());
  // The tail was truncated: appending works and survives another reopen.
  const uint64_t h2 = repo->PutImage(FullImage(2, 30, 40));
  ASSERT_NE(h2, 0u);
  repo.reset();
  repo = OpenRepo();
  EXPECT_EQ(repo->live_image_count(), 2u);
}

TEST_F(RepoTest, FlippedSegmentByteIsRejectedAtOpen) {
  {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(1, 10, 20)), 0u);
  }
  const std::string segment = dir_ + "/segment.1";
  const uint64_t size = fs::file_size(segment);
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(size - 3), SEEK_SET);  // inside a payload
  int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(size - 3), SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);

  std::string error;
  auto repo = CheckpointRepo::Open(dir_, RepoOptions{}, &error);
  EXPECT_EQ(repo, nullptr);
  EXPECT_NE(error.find("verification"), std::string::npos) << error;
}

TEST_F(RepoTest, OldFormatFilesAreRefusedAtOpen) {
  {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(1, 10, 20)), 0u) << repo->error();
  }
  // Format 1 stored parent-ref chunk tables; its files must fail the header
  // check rather than be misparsed as format 2. The version word follows the
  // 4-byte magic in both files.
  const std::pair<const char*, const char*> cases[] = {
      {"journal.1", "bad journal header"}, {"segment.1", "bad segment header"}};
  for (const auto& [file, message] : cases) {
    const std::string scratch = dir_ + "_v1";
    fs::remove_all(scratch);
    fs::copy(dir_, scratch);
    {
      std::fstream f(fs::path(scratch) / file,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open()) << file;
      const uint32_t version = 1;
      f.seekp(4);
      f.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    std::string error;
    EXPECT_EQ(CheckpointRepo::Open(scratch, RepoOptions{}, &error), nullptr)
        << file;
    EXPECT_NE(error.find(message), std::string::npos) << error;
    fs::remove_all(scratch);
  }
}

// Truncates a copy of the repository's `file` to every possible length and
// opens it. Every open must either fail cleanly or yield a repository whose
// surviving live images all materialize — and must never crash.
void TruncationSweep(const std::string& dir, const std::string& file,
                     bool expect_some_open) {
  const std::string scratch = dir + "_truncated";
  const uint64_t full_size = fs::file_size(fs::path(dir) / file);
  size_t opened = 0;
  for (uint64_t len = 0; len < full_size; ++len) {
    fs::remove_all(scratch);
    fs::copy(dir, scratch);
    fs::resize_file(fs::path(scratch) / file, len);
    std::string error;
    auto repo = CheckpointRepo::Open(scratch, RepoOptions{}, &error);
    if (repo == nullptr) {
      EXPECT_FALSE(error.empty()) << file << " truncated to " << len;
      continue;
    }
    ++opened;
    for (const uint64_t handle : repo->LiveHandles()) {
      EXPECT_FALSE(repo->Materialize(handle).empty())
          << file << " truncated to " << len << ", handle " << handle;
    }
  }
  fs::remove_all(scratch);
  if (expect_some_open) {
    // Some prefixes must still open (at minimum, the untorn early ones).
    EXPECT_GT(opened, 0u) << file;
  }
}

class RepoDurabilityTest : public RepoTest {
 protected:
  // A small repository exercising every record type a put path writes: two
  // generations sharing a payload, an unrelated image, a retire. Closed so
  // all bytes are on disk.
  void BuildFixture() {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(1, 10, 20)), 0u) << repo->error();
    const uint64_t h2 = repo->PutImage(FullImage(2, 11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
    ASSERT_NE(repo->PutImage(FullImage(3, 30, 40)), 0u);
    ASSERT_TRUE(repo->RetireImage(3));
  }
};

TEST_F(RepoDurabilityTest, SurvivesJournalTruncationAtEveryByte) {
  BuildFixture();
  // A torn journal is a crash artifact: the valid prefix must keep opening.
  TruncationSweep(dir_, "journal.1", /*expect_some_open=*/true);
}

TEST_F(RepoDurabilityTest, SurvivesSegmentTruncationAtEveryByte) {
  BuildFixture();
  // Every segment payload here is journal-referenced, so any truncation is
  // corruption the open must reject — cleanly, never by crashing.
  TruncationSweep(dir_, "segment.1", /*expect_some_open=*/false);
}

// --- End-to-end: a persisted TimeTravelTree across process restarts -----------

TimeTravelTree::Factory TreeFactory() {
  return [] {
    BasicExperimentRun::Params params;
    params.seed = 31;
    return std::make_unique<BasicExperimentRun>(params);
  };
}

TEST_F(RepoTest, TreePersistsAndReopensDigestIdentical) {
  std::vector<int> ids;
  uint64_t manifest = 0;
  {
    TimeTravelTree tree(TreeFactory());
    ids = tree.RecordOriginalRun(6 * kSecond, 2 * kSecond);
    ASSERT_GE(ids.size(), 3u);
    auto repo = OpenRepo();
    manifest = tree.PersistTo(repo.get());
    ASSERT_NE(manifest, 0u) << repo->error();
  }
  // "Fresh process": nothing survives but the directory and the manifest
  // handle. A rebuilt tree must verify every checkpoint — a fresh Simulator
  // restored from repository bytes reproduces the recorded digests.
  uint64_t reclaimed = 0;
  {
    auto repo = OpenRepo();
    TimeTravelTree tree(TreeFactory());
    ASSERT_TRUE(tree.ReopenFrom(repo.get(), manifest));
    ASSERT_EQ(tree.tree().size(), ids.size());
    for (int id : ids) {
      EXPECT_TRUE(tree.VerifyImageRestore(id)) << "checkpoint " << id;
    }
    // Replay still branches off the reopened history.
    const std::vector<int> branch =
        tree.ReplayFrom(ids[0], 6 * kSecond, 2 * kSecond, /*perturb_seed=*/0,
                        RestoreMode::kImage);
    EXPECT_FALSE(branch.empty());

    // A GC pass must not disturb the persisted tree.
    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
    reclaimed = gc.reclaimed_bytes;
  }
  {
    auto repo = OpenRepo();
    TimeTravelTree tree(TreeFactory());
    ASSERT_TRUE(tree.ReopenFrom(repo.get(), manifest));
    for (int id : ids) {
      EXPECT_TRUE(tree.VerifyImageRestore(id))
          << "checkpoint " << id << " after GC reclaiming " << reclaimed;
    }
  }
}

// --- End-to-end: engine spill-to-repository of a capture series ---------------

TEST_F(RepoTest, EngineSpillChainRestoresDigestIdenticalAcrossHousekeeping) {
  BasicExperimentRun::Params params;
  params.seed = 41;

  struct Gen {
    uint64_t handle = 0;
    uint64_t digest = 0;
  };
  std::vector<Gen> gens;
  {
    auto repo = OpenRepo();
    BasicExperimentRun run(params);
    run.engine().AttachRepository(repo.get());
    for (int i = 0; i < 6; ++i) {
      run.AdvanceTo(run.Now() + 500 * kMillisecond);
      const CheckpointCapture cap = run.CaptureCheckpoint();
      const uint64_t handle = run.engine().last_repo_handle();
      ASSERT_NE(handle, 0u) << repo->error();
      gens.push_back({handle, cap.digest});
    }
    // Later captures shared payloads with earlier spills: the repository
    // stored those once.
    EXPECT_GT(repo->logical_put_bytes(), repo->physical_put_bytes());
  }

  // Fresh process, fresh simulators: every spilled generation restores to
  // the digest recorded at its capture.
  auto repo = OpenRepo();
  for (const Gen& gen : gens) {
    const std::vector<uint8_t> image = repo->Materialize(gen.handle);
    ASSERT_FALSE(image.empty()) << repo->error();
    BasicExperimentRun fresh(params);
    const std::optional<uint64_t> digest = fresh.RestoreFromImage(image);
    ASSERT_TRUE(digest.has_value());
    EXPECT_EQ(*digest, gen.digest) << "handle " << gen.handle;
  }

  // Retirement of all but the newest generation and a GC pass: the survivor
  // must still restore digest-identical in yet another process.
  for (size_t i = 0; i + 1 < gens.size(); ++i) {
    ASSERT_TRUE(repo->RetireImage(gens[i].handle)) << repo->error();
  }
  ASSERT_TRUE(repo->CollectGarbage().ok) << repo->error();
  repo.reset();

  repo = OpenRepo();
  EXPECT_EQ(repo->live_image_count(), 1u);
  for (size_t i = 0; i + 1 < gens.size(); ++i) {
    EXPECT_FALSE(repo->Has(gens[i].handle));
  }
  const std::vector<uint8_t> image = repo->Materialize(gens.back().handle);
  ASSERT_FALSE(image.empty()) << repo->error();
  BasicExperimentRun fresh(params);
  const std::optional<uint64_t> digest = fresh.RestoreFromImage(image);
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(*digest, gens.back().digest);
}

// --- Batched group commit -------------------------------------------------------

TEST_F(RepoTest, BatchCommitsEpochAllAtOnceAndMatchesOracle) {
  auto repo = OpenRepo();
  const uint64_t committed = repo->PutImage(FullImage(1, 10, 20));
  ASSERT_NE(committed, 0u) << repo->error();

  // One epoch: an image plus the next generation of it, staged together.
  // The shared "b" payload is appended once, by the first.
  auto batch = repo->BeginBatch();
  const uint64_t t_first = batch->Stage(FullImage(2, 30, 40));
  const uint64_t t_next = batch->Stage(FullImage(3, 31, 40));
  EXPECT_EQ(batch->staged_count(), 2u);
  const auto result = repo->CommitBatch(std::move(batch));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.images, 2u);
  EXPECT_EQ(result.appended_payload_bytes, 3 * PayloadOf(0).size());
  ASSERT_EQ(result.handles.size(), 2u);
  const uint64_t h_first = result.handles[t_first - 1];
  const uint64_t h_next = result.handles[t_next - 1];
  ASSERT_NE(h_first, 0u);
  ASSERT_NE(h_next, 0u);

  EXPECT_EQ(repo->live_image_count(), 3u);
  EXPECT_EQ(repo->Materialize(h_first), FullImage(2, 30, 40));
  EXPECT_EQ(repo->Materialize(h_next), FullImage(3, 31, 40));

  // The epoch survives a restart exactly as committed.
  repo.reset();
  repo = OpenRepo();
  EXPECT_EQ(repo->live_image_count(), 3u);
  EXPECT_EQ(repo->Materialize(h_next), FullImage(3, 31, 40));

  // An empty batch is a no-op commit.
  const auto empty = repo->CommitBatch(repo->BeginBatch());
  EXPECT_TRUE(empty.ok) << empty.error;
  EXPECT_EQ(empty.images, 0u);
}

TEST_F(RepoTest, BatchRejectionIsAllOrNothing) {
  auto repo = OpenRepo();
  const uint64_t h1 = repo->PutImage(FullImage(1, 10, 20));
  ASSERT_NE(h1, 0u) << repo->error();

  // Two good images around one that names a parent (even a committed one):
  // the whole epoch must be refused.
  std::vector<uint8_t> with_parent = FullImage(3, 11, 20);
  with_parent[16] = 1;  // parent id field, after magic, version and image id
  auto batch = repo->BeginBatch();
  batch->Stage(FullImage(2, 30, 40));
  batch->Stage(std::move(with_parent));
  batch->Stage(FullImage(4, 50, 60));
  const auto result = repo->CommitBatch(std::move(batch));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("parent"), std::string::npos) << result.error;
  EXPECT_EQ(result.handles, (std::vector<uint64_t>{0, 0, 0}));
  EXPECT_EQ(repo->live_image_count(), 1u);

  // The repository is still fully usable after rejections.
  EXPECT_NE(repo->PutImage(FullImage(5, 70, 80)), 0u) << repo->error();
  EXPECT_EQ(repo->live_image_count(), 2u);
}

std::vector<uint8_t> FileBytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST_F(RepoTest, ConcurrentStagersProduceByteIdenticalRepository) {
  // The same 16 images (with cross-image shared payloads, so dedup order
  // matters) through two repositories: one staged sequentially with inline
  // hashing — the oracle — and one staged from four threads with a hashing
  // pool. Explicit sequence keys pin the commit order; the resulting
  // repository files must be byte-identical.
  std::vector<std::vector<uint8_t>> images;
  for (uint64_t i = 0; i < 16; ++i) {
    images.push_back(FullImage(i + 1, i % 4, i * 7));
  }

  const std::string seq_dir = dir_ + "_seq";
  const std::string par_dir = dir_ + "_par";
  fs::remove_all(seq_dir);
  fs::remove_all(par_dir);

  std::string error;
  RepoOptions seq_opts;
  seq_opts.hash_threads = 0;  // inline hashing: the sequential oracle
  auto seq_repo = CheckpointRepo::Open(seq_dir, seq_opts, &error);
  ASSERT_NE(seq_repo, nullptr) << error;
  {
    auto batch = seq_repo->BeginBatch();
    for (uint64_t i = 0; i < images.size(); ++i) {
      batch->Stage(std::vector<uint8_t>(images[i]), /*sequence=*/i + 1);
    }
    ASSERT_TRUE(seq_repo->CommitBatch(std::move(batch)).ok);
  }

  RepoOptions par_opts;
  par_opts.hash_threads = 4;
  auto par_repo = CheckpointRepo::Open(par_dir, par_opts, &error);
  ASSERT_NE(par_repo, nullptr) << error;
  {
    auto batch = par_repo->BeginBatch();
    std::vector<std::thread> stagers;
    for (int t = 0; t < 4; ++t) {
      stagers.emplace_back([&batch, &images, t] {
        for (uint64_t i = t; i < images.size(); i += 4) {
          batch->Stage(std::vector<uint8_t>(images[i]), /*sequence=*/i + 1);
        }
      });
    }
    for (std::thread& s : stagers) {
      s.join();
    }
    ASSERT_EQ(batch->staged_count(), images.size());
    ASSERT_TRUE(par_repo->CommitBatch(std::move(batch)).ok);
  }

  // Handles were assigned by sequence, not by staging interleaving: image
  // i + 1 (its embedded id) got handle i + 1 in both repositories.
  for (uint64_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(seq_repo->ImageIdOf(i + 1), i + 1);
    EXPECT_EQ(par_repo->ImageIdOf(i + 1), i + 1);
    EXPECT_EQ(par_repo->Materialize(i + 1), seq_repo->Materialize(i + 1));
  }
  seq_repo.reset();
  par_repo.reset();

  // The strongest form of the determinism claim: identical bytes on disk.
  EXPECT_EQ(FileBytes(fs::path(seq_dir) / "segment.1"),
            FileBytes(fs::path(par_dir) / "segment.1"));
  EXPECT_EQ(FileBytes(fs::path(seq_dir) / "journal.1"),
            FileBytes(fs::path(par_dir) / "journal.1"));
  fs::remove_all(seq_dir);
  fs::remove_all(par_dir);
}

TEST_F(RepoTest, FailedCommitLeavesRepositoryOpenableAtPreviousEpoch) {
  uint64_t h1 = 0;
  {
    auto repo = OpenRepo();
    h1 = repo->PutImage(FullImage(1, 10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
  }
  // Reopen with the disk "full" at exactly the current segment size: any new
  // payload append fails, as a filled disk would.
  RepoOptions opts;
  opts.testing_segment_append_limit = fs::file_size(dir_ + "/segment.1");
  std::string error;
  auto repo = CheckpointRepo::Open(dir_, opts, &error);
  ASSERT_NE(repo, nullptr) << error;

  auto batch = repo->BeginBatch();
  batch->Stage(FullImage(2, 30, 40));
  const auto result = repo->CommitBatch(std::move(batch));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("append failed"), std::string::npos)
      << result.error;
  // Nothing published; the error is sticky, so retries keep failing instead
  // of tearing the segment, and reads of committed state still work.
  EXPECT_EQ(repo->live_image_count(), 1u);
  auto retry = repo->BeginBatch();
  retry->Stage(FullImage(3, 50, 60));
  EXPECT_FALSE(repo->CommitBatch(std::move(retry)).ok);
  EXPECT_EQ(repo->Materialize(h1), FullImage(1, 10, 20));
  repo.reset();

  // A fresh process opens the previous epoch, whole and writable.
  auto reopened = OpenRepo();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->live_image_count(), 1u);
  EXPECT_EQ(reopened->Materialize(h1), FullImage(1, 10, 20));
  EXPECT_NE(reopened->PutImage(FullImage(2, 30, 40)), 0u)
      << reopened->error();
}

// Crash injection over a batched epoch: truncates the journal (then the
// segment) at every byte and opens the wreck. Every successful open must
// observe either the state before the epoch or the entire epoch — a batch is
// never half-visible.
class RepoBatchDurabilityTest : public RepoTest {
 protected:
  // One committed image, then one batched epoch of three (a full, a second
  // full, and the materialized next generation of the second) — closed so
  // all bytes are on disk.
  void BuildBatchedFixture() {
    auto repo = OpenRepo();
    ASSERT_NE(repo->PutImage(FullImage(1, 10, 20)), 0u) << repo->error();
    auto batch = repo->BeginBatch();
    batch->Stage(FullImage(2, 30, 40));
    batch->Stage(FullImage(3, 50, 60));
    batch->Stage(FullImage(4, 51, 60));
    const auto result = repo->CommitBatch(std::move(batch));
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(repo->live_image_count(), 4u);
  }

  // Truncation sweep asserting all-or-nothing epoch visibility: a surviving
  // open holds 0 or 1 images (pre-epoch prefixes) or all 4 — never a torn 2
  // or 3 — and everything live materializes.
  void AllOrNothingSweep(const std::string& file, bool expect_rollback) {
    const std::string scratch = dir_ + "_truncated";
    const uint64_t full_size = fs::file_size(fs::path(dir_) / file);
    std::set<size_t> seen_counts;
    for (uint64_t len = 0; len < full_size; ++len) {
      fs::remove_all(scratch);
      fs::copy(dir_, scratch);
      fs::resize_file(fs::path(scratch) / file, len);
      std::string error;
      auto repo = CheckpointRepo::Open(scratch, RepoOptions{}, &error);
      if (repo == nullptr) {
        EXPECT_FALSE(error.empty()) << file << " truncated to " << len;
        continue;
      }
      const size_t live = repo->live_image_count();
      EXPECT_TRUE(live <= 1 || live == 4)
          << file << " truncated to " << len << " exposed a torn epoch of "
          << live << " images";
      seen_counts.insert(live);
      for (const uint64_t handle : repo->LiveHandles()) {
        EXPECT_FALSE(repo->Materialize(handle).empty())
            << file << " truncated to " << len << ", handle " << handle;
      }
    }
    fs::remove_all(scratch);
    if (expect_rollback) {
      // The sweep actually exercised the pre-epoch state (tearing the batch
      // record rolled the repository back to image 1 alone).
      EXPECT_TRUE(seen_counts.count(1)) << file;
    }
  }
};

TEST_F(RepoBatchDurabilityTest, JournalTearNeverSplitsAnEpoch) {
  BuildBatchedFixture();
  AllOrNothingSweep("journal.1", /*expect_rollback=*/true);
}

TEST_F(RepoBatchDurabilityTest, SegmentTearNeverSplitsAnEpoch) {
  BuildBatchedFixture();
  // Segment truncations corrupt journal-referenced payloads: opens must
  // reject them cleanly (never crash, never show a partial epoch) — the
  // journal still names the whole epoch, so no rollback state is reachable.
  AllOrNothingSweep("segment.1", /*expect_rollback=*/false);
}

// Crash injection against the two-phase capture pipeline, through the real
// write path: the repository is produced by an async epoch coordinator whose
// background thread serializes staged snapshots and group-commits them while
// the next window runs. Instead of tearing the finished files after the fact,
// RepoIoFaultInjector is armed with a byte budget while the pipeline runs, so
// the tear is produced by SegmentFile/JournalWriter themselves — an admitted
// prefix reaches the file, the crossing write fails, the writers go sticky —
// exactly the state a full disk or a crash mid-append leaves. Every recovery
// must yield whole epochs: the live-handle count is a multiple of the
// partition count, never a torn epoch, and everything visible materializes.
class AsyncSpillDurabilityTest : public RepoTest {
 protected:
  static constexpr uint32_t kPartitions = 4;
  static constexpr size_t kEpochs = 2;

  struct PipelineResult {
    bool opened = false;
    bool all_spills_ok = false;
    size_t epochs_run = 0;
  };

  // Drives the async two-phase pipeline against a repository in `dir`. A
  // small 4-zone fat tree (one LAN per zone) keeps the run tractable while
  // exercising the real data path; the run is deterministic, so every
  // invocation produces the identical byte stream and an armed budget tears
  // the same write each time. `arm` fires between Open and the run, for
  // faults that must spare repository creation.
  PipelineResult RunPipeline(const std::string& dir, const RepoOptions& opts,
                             const std::function<void()>& arm = {}) {
    PipelineResult result;
    std::string error;
    auto repo = CheckpointRepo::Open(dir, opts, &error);
    if (repo == nullptr) {
      // Acceptable only when a fault is armed tightly enough to break
      // creation itself; callers assert `opened` when that can't happen.
      EXPECT_FALSE(error.empty());
      return result;
    }
    result.opened = true;
    if (arm) {
      arm();
    }
    GeneratedTopologyParams params;
    params.hosts = 20;
    params.hosts_per_lan = 5;
    params.lans_per_zone = 1;
    auto topo = GeneratedTopology::Build(params, kPartitions, /*workers=*/2);
    EXPECT_EQ(topo->partition_count(), kPartitions);
    PartitionEpochCoordinator epochs(
        topo->scheduler(), 10 * kMillisecond,
        [&topo](Partition* p) { return topo->CapturePartitionImage(p->id()); });
    epochs.EnableAsyncCapture([&topo](Partition* p, StagedCapture* out) {
      topo->SnapshotPartition(p->id(), out);
    });
    epochs.AttachRepository(repo.get());
    epochs.RunUntil(kEpochs * 10 * kMillisecond);
    result.epochs_run = epochs.history().size();
    result.all_spills_ok = result.epochs_run == kEpochs;
    for (const auto& rec : epochs.history()) {
      EXPECT_TRUE(rec.async);
      result.all_spills_ok = result.all_spills_ok && rec.spill_ok;
    }
    return result;
  }

  // Reopens `dir` after a write-path fault and asserts all-or-nothing epoch
  // visibility; records the live count for the rollback-reached check.
  void ExpectWholeEpochs(const std::string& dir, uint64_t budget) {
    std::string error;
    auto repo = CheckpointRepo::Open(dir, RepoOptions{}, &error);
    if (repo == nullptr) {
      EXPECT_FALSE(error.empty()) << "budget " << budget;
      return;
    }
    const size_t live = repo->live_image_count();
    EXPECT_EQ(live % kPartitions, 0u)
        << "budget " << budget << " exposed a torn epoch of " << live
        << " images";
    EXPECT_LE(live, kEpochs * kPartitions) << "budget " << budget;
    seen_counts_.insert(live);
    for (const uint64_t handle : repo->LiveHandles()) {
      EXPECT_FALSE(repo->Materialize(handle).empty())
          << "budget " << budget << ", handle " << handle;
    }
  }

  // One clean instrumented run measuring the target's total byte stream (the
  // sweep's domain). The default plan never faults; it only counts.
  uint64_t MeasureCleanBytes(RepoIoTarget target) {
    const std::string probe = dir_ + "_probe";
    fs::remove_all(probe);
    RepoIoFaultInjector::Arm(target, RepoIoFaultPlan{});
    const PipelineResult r = RunPipeline(probe, RepoOptions{});
    const uint64_t total = RepoIoFaultInjector::bytes_admitted(target);
    RepoIoFaultInjector::DisarmAll();
    fs::remove_all(probe);
    EXPECT_TRUE(r.opened && r.all_spills_ok);
    EXPECT_EQ(RepoIoFaultInjector::faults_injected(target), 0u);
    return total;
  }

  // Budget sweep: each iteration runs the whole pipeline with the crossing
  // write torn for real. Strided over the body (each run is a full
  // simulation, unlike the byte-cheap truncation sweeps above) but
  // byte-exact over the final record's tail, where the torn group commit
  // lives.
  void WriteFaultSweep(RepoIoTarget target, bool expect_rollback) {
    const uint64_t total = MeasureCleanBytes(target);
    ASSERT_GT(total, 0u);
    std::set<uint64_t> budgets;
    const uint64_t stride = std::max<uint64_t>(1, total / 96);
    for (uint64_t b = 0; b < total; b += stride) {
      budgets.insert(b);
    }
    for (uint64_t b = total > 64 ? total - 64 : 0; b < total; ++b) {
      budgets.insert(b);
    }
    const std::string scratch = dir_ + "_fault";
    for (const uint64_t budget : budgets) {
      fs::remove_all(scratch);
      RepoIoFaultPlan plan;
      plan.allow_bytes = budget;
      RepoIoFaultInjector::Arm(target, plan);
      const PipelineResult r = RunPipeline(scratch, RepoOptions{});
      const uint64_t faults = RepoIoFaultInjector::faults_injected(target);
      RepoIoFaultInjector::DisarmAll();
      // The budget is below the clean stream, so some write must have torn,
      // and a commit containing it must have reported failure.
      EXPECT_GT(faults, 0u) << "budget " << budget;
      EXPECT_FALSE(r.opened && r.all_spills_ok) << "budget " << budget;
      ExpectWholeEpochs(scratch, budget);
    }
    fs::remove_all(scratch);
    if (expect_rollback) {
      // The sweep actually recovered a partial-history state: the first
      // epoch alone, the torn group commit invisible.
      EXPECT_TRUE(seen_counts_.count(kPartitions));
    }
  }

  std::set<size_t> seen_counts_;
};

TEST_F(AsyncSpillDurabilityTest, JournalWriteTearRecoversWholeEpochsOnly) {
  WriteFaultSweep(RepoIoTarget::kJournal, /*expect_rollback=*/true);
}

TEST_F(AsyncSpillDurabilityTest, SegmentWriteTearRecoversWholeEpochsOnly) {
  // A torn segment write aborts the group commit before its journal record
  // exists, so recovery lands on a clean whole-epoch prefix (possibly empty);
  // the journal never names a payload that failed to land.
  WriteFaultSweep(RepoIoTarget::kSegment, /*expect_rollback=*/true);
}

TEST_F(AsyncSpillDurabilityTest, FsyncFailureFailsTheCommitNotTheProcess) {
  // With options.fsync every group commit syncs the journal; a failing fsync
  // must surface as a failed spill (the epoch is not durably committed) while
  // the run itself carries on, and a reopen still sees only whole epochs —
  // the record bytes may or may not have reached the disk, which is exactly
  // the ambiguity a real fsync failure leaves.
  const std::string scratch = dir_ + "_fsync";
  fs::remove_all(scratch);
  RepoOptions opts;
  opts.fsync = true;
  const PipelineResult r = RunPipeline(scratch, opts, [] {
    RepoIoFaultPlan plan;
    plan.fail_fsync = true;
    RepoIoFaultInjector::Arm(RepoIoTarget::kJournal, plan);
  });
  const uint64_t faults =
      RepoIoFaultInjector::faults_injected(RepoIoTarget::kJournal);
  RepoIoFaultInjector::DisarmAll();
  ASSERT_TRUE(r.opened);
  EXPECT_EQ(r.epochs_run, kEpochs);
  EXPECT_GT(faults, 0u);
  EXPECT_FALSE(r.all_spills_ok);
  ExpectWholeEpochs(scratch, /*budget=*/0);
  fs::remove_all(scratch);
}

// --- fsync durability path ------------------------------------------------------

TEST_F(RepoTest, FsyncModeSurvivesFullLifecycleAndReopen) {
  // With options.fsync the repository syncs file contents *and* the parent
  // directory at every install point: fresh creation, journal commits, and
  // the GC epoch's CURRENT switch. This exercises every one of those paths
  // end to end; a failure in any fsync surfaces as an open/commit error.
  RepoOptions opts;
  opts.fsync = true;
  uint64_t h2 = 0;
  {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, opts, &error);
    ASSERT_NE(repo, nullptr) << error;
    const uint64_t h1 = repo->PutImage(FullImage(1, 10, 20));
    ASSERT_NE(h1, 0u) << repo->error();
    h2 = repo->PutImage(FullImage(2, 11, 20));
    ASSERT_NE(h2, 0u) << repo->error();
    ASSERT_TRUE(repo->RetireImage(h1)) << repo->error();
    const auto gc = repo->CollectGarbage();
    ASSERT_TRUE(gc.ok) << repo->error();
  }
  {
    std::string error;
    auto repo = CheckpointRepo::Open(dir_, opts, &error);
    ASSERT_NE(repo, nullptr) << error;
    EXPECT_TRUE(repo->IsLive(h2));
    EXPECT_EQ(repo->Materialize(h2), FullImage(2, 11, 20)) << repo->error();
  }
}

TEST(FsyncHelpersTest, FsyncDirectoryRejectsMissingPath) {
#ifndef _WIN32
  EXPECT_FALSE(FsyncDirectory("/nonexistent/tcsim/nowhere"));
#endif
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(FsyncDirectory(dir));
}

}  // namespace
}  // namespace tcsim
