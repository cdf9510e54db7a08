// An epoch-scoped staging area for batched, concurrent puts.
//
// The per-put path (CheckpointRepo::PutImage) pays a parse-with-copies, a
// hash pass, and a flush-per-record journal commit for every image. A batch
// amortizes all three across an epoch: callers *stage* serialized images —
// zero-copy, by sharing the buffer — from any thread; a lite structural
// parse happens on the staging thread and content hashing + CRC verification
// run on the repository's background hashing pool, overlapped with further
// staging and captures. CommitBatch then validates, appends every new
// payload to the segment (one flush), and publishes the whole epoch with a
// single journal record (one flush) — recovery sees it all-or-nothing.
//
// Determinism: handles, segment offsets, and the journal record are assigned
// at commit in (sequence, ticket) order, never at stage time, so a parallel
// run staging from N threads produces byte-identical repository files to the
// sequential oracle staging the same images with the same sequence keys.
//
// Thread contract:
//  - Stage() is safe from any thread, concurrently.
//  - CommitBatch() (on the repository) must be called from the single thread
//    that owns the repository; it waits for the batch's hash tasks first.
//  - A batch belongs to the repository that created it and must not outlive
//    it (the destructor waits for in-flight hash tasks).

#ifndef TCSIM_SRC_REPO_WRITE_BATCH_H_
#define TCSIM_SRC_REPO_WRITE_BATCH_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/repo/repo_format.h"
#include "src/sim/image.h"

namespace tcsim {

class CheckpointRepo;

class RepoWriteBatch {
 public:
  // Default sequence: commit in stage order (the ticket).
  static constexpr uint64_t kSequenceStageOrder = ~uint64_t{0};

  ~RepoWriteBatch();
  RepoWriteBatch(const RepoWriteBatch&) = delete;
  RepoWriteBatch& operator=(const RepoWriteBatch&) = delete;

  // Stages one serialized image (format v1 or v2) and returns its 1-based
  // ticket — the index of its handle in the commit result. Rejections
  // surface at commit, never here.
  // `sequence` fixes the commit order between concurrent stagers (e.g. the
  // partition id); ties break by ticket.
  uint64_t Stage(std::shared_ptr<const std::vector<uint8_t>> image,
                 uint64_t sequence = kSequenceStageOrder);
  // Ownership-transfer convenience for callers holding a plain buffer (e.g.
  // straight out of ArchiveWriter::Take()).
  uint64_t Stage(std::vector<uint8_t>&& image,
                 uint64_t sequence = kSequenceStageOrder);

  size_t staged_count() const;
  uint64_t staged_bytes() const;

 private:
  friend class CheckpointRepo;

  struct StagedChunk {
    std::string id;
    uint32_t declared_crc = 0;  // envelope CRC
    ByteSpan span;              // payload bytes inside `Entry::bytes`
    ContentKey key;             // filled by the hashing task
    bool crc_ok = false;        // computed CRC == declared CRC
  };

  // Heap-stable (vector of unique_ptr): hash tasks write into their entry
  // while the entries vector grows under other stagers.
  struct Entry {
    uint64_t ticket = 0;
    uint64_t sequence = 0;
    std::shared_ptr<const std::vector<uint8_t>> bytes;
    bool parsed_ok = false;
    std::string parse_error;
    uint32_t format_version = 0;
    uint64_t embedded_id = 0;
    std::vector<StagedChunk> chunks;
  };

  explicit RepoWriteBatch(CheckpointRepo* repo);

  // Hashing-pool task: content keys + CRC verdicts for one entry's chunks.
  // The entry is exclusively the task's until the pending count drops under
  // mu_ — the commit thread only reads entries after WaitHashed().
  void HashEntry(Entry* entry);
  void WaitHashed();

  CheckpointRepo* repo_;
  mutable std::mutex mu_;
  std::condition_variable hashed_cv_;
  size_t hash_pending_ = 0;                      // guarded by mu_
  std::vector<std::unique_ptr<Entry>> entries_;  // growth guarded by mu_
  uint64_t staged_bytes_ = 0;                    // guarded by mu_
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_WRITE_BATCH_H_
