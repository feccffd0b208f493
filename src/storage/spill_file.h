#ifndef ECA_STORAGE_SPILL_FILE_H_
#define ECA_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace eca {

// Spill-to-disk building blocks for the query resource governor
// (docs/robustness.md, "Resource governor"). A SpillWriter serializes
// tagged rows append-only into a temp file; a SpillReader streams them
// back, verifying a per-record checksum so a torn or corrupted spill is a
// clean kDataLoss instead of silent wrong rows. SpillDir owns the temp
// directory and guarantees cleanup on every path, error paths included —
// a governed query never leaves orphan files behind.
//
// One framed record (storage/record_io.h) per row; the payload is
//   u64 tag        caller payload (the executor stores the global row id,
//                  which is what lets spilled joins reassemble output
//                  byte-identical to the in-memory order)
//   u32 nvalues
//   nvalues Values in the record_io Value encoding
//
// All I/O errors — open, write, flush, short read, checksum mismatch —
// surface as Status; FaultPoint::kSpillIo injects them deterministically
// for the governor's fault tests.

struct SpillStats {
  int64_t files_created = 0;
  int64_t rows_written = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
};

// --- Crash-safe per-query spill layout ------------------------------------
//
// A governed query with a configured spill directory keeps all of its
// operator SpillDirs inside one per-query subdirectory named
// "eca-q<pid>-<seq>" (QueryContext derives it via QuerySpillSubdir and
// removes it when the query ends). The pid in the name is what makes a
// crash recoverable: a process that dies mid-spill leaves its
// subdirectories behind, and the next `ecad` startup (or `ecatool
// sweep-spill-dir`) calls SweepOrphanQuerySpillDirs to reclaim every
// subdirectory whose owning process is no longer alive. Subdirectories of
// live processes — including our own — are never touched, so concurrent
// servers can safely share one spill root.

// Returns `base`/eca-q<pid>-<seq> for this process with a fresh sequence
// number. The directory is NOT created (SpillDir creates it lazily on
// first spill), so queries that never spill cost no filesystem traffic.
std::string QuerySpillSubdir(const std::string& base);

// Removes every "eca-q<pid>-<seq>" subdirectory of `base` whose pid does
// not name a live process. Returns the number of subdirectories removed;
// a missing or unreadable `base` sweeps nothing. Best-effort: removal
// failures are skipped, not fatal (the next sweep retries).
int64_t SweepOrphanQuerySpillDirs(const std::string& base);

// A directory of spill files for one operator, created lazily under the
// system temp dir (or `base_dir` when given). Removed with everything in
// it on destruction.
class SpillDir {
 public:
  // `label` shows up in the directory name for post-mortem debugging.
  explicit SpillDir(std::string label = "eca-spill",
                    std::string base_dir = "");
  ~SpillDir();

  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;

  // Creates the directory on first use; returns the path of a fresh file
  // name inside it (files are created by SpillWriter).
  StatusOr<std::string> NextFilePath();

  // Best-effort recursive removal; called by the destructor. Exposed so
  // tests can assert the cleanup happened.
  void RemoveAll();

  const std::string& path() const { return path_; }
  bool created() const { return created_; }

 private:
  std::string label_;
  std::string base_dir_;
  std::string path_;
  bool created_ = false;
  int64_t next_file_ = 0;
};

// Append-only writer. Create, Append N times, Finish (flushes and
// closes). The file is deleted by SpillDir teardown, not by the writer.
class SpillWriter {
 public:
  SpillWriter() = default;
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  Status Open(const std::string& path, SpillStats* stats = nullptr);
  Status Append(uint64_t tag, const Tuple& row);
  // Flushes and closes; the writer is reusable after another Open.
  Status Finish();

  int64_t rows_written() const { return rows_; }
  // Serialized bytes appended since Open; the grace join uses this to
  // decide whether a partition needs recursive re-partitioning.
  int64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<unsigned char> buf_;  // per-record scratch
  int64_t rows_ = 0;
  int64_t bytes_ = 0;
  SpillStats* stats_ = nullptr;
};

// Streaming reader over a spill file written by SpillWriter.
class SpillReader {
 public:
  SpillReader() = default;
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  Status Open(const std::string& path, SpillStats* stats = nullptr);
  // Reads the next record into (*tag, *row). Sets *eof instead of filling
  // the outputs when the stream ends cleanly; a truncated or corrupted
  // record is kDataLoss.
  Status Next(uint64_t* tag, Tuple* row, bool* eof);
  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<unsigned char> buf_;
  SpillStats* stats_ = nullptr;
};

// External merge sort over tagged rows, the spill path for the sort-based
// compensation operators (beta / gamma*) and any governed consumer that
// cannot hold its input: feed rows in, they accumulate in memory until
// `run_bytes` and then spill as a sorted run; Sorted() merges all runs
// (plus the in-memory tail) and streams the rows out in comparator order,
// ties broken by tag (so equal rows keep their input order when tagged
// with the input index — a stable external sort).
class ExternalRowSorter {
 public:
  using Less = std::function<bool(const Tuple&, const Tuple&)>;

  // `less` must be a strict weak order; it is applied to rows only (tags
  // break ties).
  ExternalRowSorter(SpillDir* dir, Less less, int64_t run_bytes,
                    SpillStats* stats = nullptr);
  ~ExternalRowSorter();

  Status Add(uint64_t tag, Tuple row);

  // Finishes ingestion and merges. Calls `emit` for every row in sorted
  // order; an error from `emit` aborts the merge and is returned.
  Status Drain(const std::function<Status(uint64_t, Tuple&)>& emit);

  int64_t runs_spilled() const { return runs_spilled_; }

 private:
  struct TaggedRow {
    uint64_t tag = 0;
    Tuple row;
  };

  Status SpillRun();
  void SortPending();

  SpillDir* dir_;
  Less less_;
  int64_t run_bytes_;
  SpillStats* stats_;
  std::vector<TaggedRow> pending_;
  int64_t pending_bytes_ = 0;
  std::vector<std::string> run_paths_;
  int64_t runs_spilled_ = 0;
};

}  // namespace eca

#endif  // ECA_STORAGE_SPILL_FILE_H_
