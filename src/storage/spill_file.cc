#include "storage/spill_file.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#ifndef _WIN32
#include <signal.h>
#include <unistd.h>
#endif

#include "common/str_util.h"
#include "common/trace.h"
#include "storage/record_io.h"
#include "testing/fault_injection.h"

namespace eca {

namespace {

namespace fs = std::filesystem;

// Process-wide counter for unique spill directory names; combined with
// the pid so concurrent processes sharing a temp dir never collide.
std::atomic<int64_t> g_spill_dir_seq{0};

}  // namespace

// --- Crash-safe per-query spill layout ------------------------------------

namespace {

// Sequence for per-query subdirectory names; distinct from the SpillDir
// sequence so the two layers never race on one counter's semantics.
std::atomic<int64_t> g_query_spill_seq{0};

long long CurrentPid() {
#ifdef _WIN32
  return 0;
#else
  return static_cast<long long>(getpid());
#endif
}

// kill(pid, 0) probes existence without signalling: 0 and EPERM both mean
// the process exists; ESRCH means it is gone.
bool ProcessAlive(long long pid) {
#ifdef _WIN32
  return true;  // no cheap probe; never sweep on Windows
#else
  if (pid <= 0) return true;  // malformed name: refuse to sweep
  return kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
#endif
}

// Parses "eca-q<pid>-<seq>"; returns the pid or -1 when the name does not
// match the per-query layout (foreign files are never swept).
long long ParseQuerySpillPid(const std::string& name) {
  const std::string prefix = "eca-q";
  if (name.rfind(prefix, 0) != 0) return -1;
  size_t dash = name.find('-', prefix.size());
  if (dash == std::string::npos || dash == prefix.size()) return -1;
  long long pid = 0;
  for (size_t i = prefix.size(); i < dash; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    pid = pid * 10 + (name[i] - '0');
    if (pid > (1LL << 40)) return -1;
  }
  for (size_t i = dash + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
  }
  if (dash + 1 == name.size()) return -1;
  return pid;
}

}  // namespace

std::string QuerySpillSubdir(const std::string& base) {
  int64_t seq = g_query_spill_seq.fetch_add(1, std::memory_order_relaxed);
  return (fs::path(base) /
          StrFormat("eca-q%lld-%lld", CurrentPid(),
                    static_cast<long long>(seq)))
      .string();
}

int64_t SweepOrphanQuerySpillDirs(const std::string& base) {
  std::error_code ec;
  fs::directory_iterator it(base, ec);
  if (ec) return 0;
  int64_t removed = 0;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    long long pid = ParseQuerySpillPid(entry.path().filename().string());
    if (pid < 0) continue;          // not a per-query spill dir
    if (pid == CurrentPid()) continue;  // our own live queries
    if (ProcessAlive(pid)) continue;    // another live server's queries
    fs::remove_all(entry.path(), ec);
    if (!ec) ++removed;
  }
  return removed;
}

// --- SpillDir -------------------------------------------------------------

SpillDir::SpillDir(std::string label, std::string base_dir)
    : label_(std::move(label)), base_dir_(std::move(base_dir)) {}

SpillDir::~SpillDir() { RemoveAll(); }

StatusOr<std::string> SpillDir::NextFilePath() {
  if (!created_) {
    if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
      return InjectedIo("spill", "mkdir", label_);
    }
    std::error_code ec;
    fs::path base = base_dir_.empty()
                        ? fs::temp_directory_path(ec)
                        : fs::path(base_dir_);
    if (ec) {
      return Status::DataLoss("cannot resolve temp directory: " +
                              ec.message());
    }
    int64_t seq = g_spill_dir_seq.fetch_add(1, std::memory_order_relaxed);
#ifdef _WIN32
    long long pid = 0;
#else
    long long pid = static_cast<long long>(getpid());
#endif
    fs::path dir = base / StrFormat("%s-%lld-%lld", label_.c_str(), pid,
                                    static_cast<long long>(seq));
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::DataLoss("cannot create spill directory " +
                              dir.string() + ": " + ec.message());
    }
    path_ = dir.string();
    created_ = true;
  }
  return path_ + "/run-" + std::to_string(next_file_++) + ".spill";
}

void SpillDir::RemoveAll() {
  if (!created_) return;
  std::error_code ec;
  fs::remove_all(path_, ec);  // best effort; nothing to do on failure
  created_ = false;
  next_file_ = 0;
}

// --- SpillWriter ----------------------------------------------------------

SpillWriter::~SpillWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillWriter::Open(const std::string& path, SpillStats* stats) {
  ECA_CHECK(file_ == nullptr);
  if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
    return InjectedIo("spill", "open", path);
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::DataLoss("cannot create spill file " + path);
  }
  path_ = path;
  rows_ = 0;
  bytes_ = 0;
  stats_ = stats;
  if (stats_ != nullptr) ++stats_->files_created;
  return Status::OK();
}

Status SpillWriter::Append(uint64_t tag, const Tuple& row) {
  ECA_CHECK(file_ != nullptr);
  buf_.clear();
  size_t start = BeginRecord(&buf_);
  PutU64(&buf_, tag);
  PutU32(&buf_, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) EncodeValue(&buf_, v);
  EndRecord(&buf_, start);
  if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
    switch (FaultInjector::Variant(FaultPoint::kSpillIo)) {
      case FaultVariant::kShortWrite: {
        // A real partial write() return: a prefix of the record reaches
        // the file before the error, so the tail is physically torn on
        // disk — a later reader must fail the checksum, and the query's
        // unwind must still remove the whole spill directory.
        size_t partial = buf_.size() / 2;
        (void)!std::fwrite(buf_.data(), 1, partial, file_);
        (void)std::fflush(file_);
        return Status::DataLoss(
            "short write to spill file " + path_ + " (fault injected: " +
            std::to_string(partial) + "/" + std::to_string(buf_.size()) +
            " bytes)");
      }
      case FaultVariant::kEnospc:
        return Status::DataLoss("cannot write spill file " + path_ + ": " +
                                std::strerror(ENOSPC) + " (fault injected)");
      case FaultVariant::kDefault:
        return InjectedIo("spill", "write", path_);
    }
  }
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
    return Status::DataLoss("short write to spill file " + path_);
  }
  ++rows_;
  bytes_ += static_cast<int64_t>(buf_.size());
  if (stats_ != nullptr) {
    ++stats_->rows_written;
    stats_->bytes_written += static_cast<int64_t>(buf_.size());
  }
  return Status::OK();
}

Status SpillWriter::Finish() {
  ECA_CHECK(file_ != nullptr);
  int flush_rc = std::fflush(file_);
  int close_rc = std::fclose(file_);
  file_ = nullptr;
  if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
    if (FaultInjector::Variant(FaultPoint::kSpillIo) ==
        FaultVariant::kEnospc) {
      // The buffered tail is refused at flush time — the classic way a
      // full disk surfaces for stdio writers.
      return Status::DataLoss("cannot flush spill file " + path_ + ": " +
                              std::strerror(ENOSPC) + " (fault injected)");
    }
    return InjectedIo("spill", "flush", path_);
  }
  if (flush_rc != 0 || close_rc != 0) {
    return Status::DataLoss("cannot flush spill file " + path_ +
                            " (disk full?)");
  }
  return Status::OK();
}

// --- SpillReader ----------------------------------------------------------

SpillReader::~SpillReader() { Close(); }

Status SpillReader::Open(const std::string& path, SpillStats* stats) {
  ECA_CHECK(file_ == nullptr);
  if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
    return InjectedIo("spill", "open", path);
  }
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::DataLoss("cannot open spill file " + path);
  }
  path_ = path;
  stats_ = stats;
  return Status::OK();
}

void SpillReader::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status SpillReader::Next(uint64_t* tag, Tuple* row, bool* eof) {
  ECA_CHECK(file_ != nullptr);
  *eof = false;
  auto read_exact = [&](void* dst, size_t n, bool allow_eof) -> Status {
    size_t got = std::fread(dst, 1, n, file_);
    if (got == 0 && allow_eof && std::feof(file_)) {
      *eof = true;
      return Status::OK();
    }
    if (got != n) {
      return Status::DataLoss("truncated spill file " + path_);
    }
    if (stats_ != nullptr) stats_->bytes_read += static_cast<int64_t>(n);
    return Status::OK();
  };

  if (FaultInjector::ShouldFail(FaultPoint::kSpillIo)) {
    return InjectedIo("spill", "read", path_);
  }
  buf_.resize(4);
  ECA_RETURN_IF_ERROR(read_exact(buf_.data(), 4, /*allow_eof=*/true));
  if (*eof) return Status::OK();
  ByteReader len_reader{buf_.data(), 4};
  const uint32_t len = len_reader.GetU32();
  // A corrupted length would make us allocate garbage; bound it so the
  // checksum check below is reached instead of an OOM.
  if (len > (1u << 28)) {
    return Status::DataLoss("corrupt spill record (length) in " + path_);
  }
  buf_.resize(4 + size_t{len} + 8);
  ECA_RETURN_IF_ERROR(read_exact(buf_.data() + 4, size_t{len} + 8,
                                 /*allow_eof=*/false));
  ByteReader r{buf_.data(), buf_.size(), 4 + size_t{len}};
  if (r.GetU64() != FnvMix(kFnvOffset, buf_.data(), 4 + size_t{len})) {
    return Status::DataLoss("spill record checksum mismatch in " + path_ +
                            " (corrupted or torn write)");
  }
  r = ByteReader{buf_.data(), 4 + size_t{len}, 4};
  *tag = r.GetU64();
  uint32_t nvalues = r.GetU32();
  row->clear();
  for (uint32_t i = 0; r.ok && i < nvalues; ++i) {
    row->push_back(DecodeValue(&r));
  }
  if (!r.ok || r.pos != r.size) {
    return Status::DataLoss("corrupt spill record in " + path_);
  }
  return Status::OK();
}

// --- ExternalRowSorter ----------------------------------------------------

ExternalRowSorter::ExternalRowSorter(SpillDir* dir, Less less,
                                     int64_t run_bytes, SpillStats* stats)
    : dir_(dir), less_(std::move(less)),
      run_bytes_(run_bytes > 0 ? run_bytes : (int64_t{16} << 20)),
      stats_(stats) {}

ExternalRowSorter::~ExternalRowSorter() = default;

void ExternalRowSorter::SortPending() {
  std::sort(pending_.begin(), pending_.end(),
            [this](const TaggedRow& a, const TaggedRow& b) {
              if (less_(a.row, b.row)) return true;
              if (less_(b.row, a.row)) return false;
              return a.tag < b.tag;  // stable under equal rows
            });
}

Status ExternalRowSorter::SpillRun() {
  TraceSpan span("spill/sort-run");
  if (span.active()) {
    span.AppendArg("rows", static_cast<long long>(pending_.size()));
  }
  SortPending();
  ECA_ASSIGN_OR_RETURN(std::string path, dir_->NextFilePath());
  SpillWriter w;
  ECA_RETURN_IF_ERROR(w.Open(path, stats_));
  for (const TaggedRow& r : pending_) {
    ECA_RETURN_IF_ERROR(w.Append(r.tag, r.row));
  }
  ECA_RETURN_IF_ERROR(w.Finish());
  run_paths_.push_back(std::move(path));
  ++runs_spilled_;
  pending_.clear();
  pending_bytes_ = 0;
  return Status::OK();
}

Status ExternalRowSorter::Add(uint64_t tag, Tuple row) {
  pending_bytes_ += ApproxTupleBytes(row);
  pending_.push_back({tag, std::move(row)});
  if (pending_bytes_ >= run_bytes_) {
    ECA_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalRowSorter::Drain(
    const std::function<Status(uint64_t, Tuple&)>& emit) {
  TraceSpan span("spill/merge");
  if (span.active()) {
    span.AppendArg("runs", static_cast<long long>(run_paths_.size()));
  }
  SortPending();
  if (run_paths_.empty()) {
    // Everything fit: plain in-memory sort.
    for (TaggedRow& r : pending_) {
      ECA_RETURN_IF_ERROR(emit(r.tag, r.row));
    }
    pending_.clear();
    pending_bytes_ = 0;
    return Status::OK();
  }

  // K-way merge of the spilled runs plus the in-memory tail.
  struct Source {
    std::unique_ptr<SpillReader> reader;  // null for the in-memory tail
    std::vector<TaggedRow>* tail = nullptr;
    size_t tail_pos = 0;
    TaggedRow head;
    bool open = false;
  };
  std::vector<Source> sources;
  sources.reserve(run_paths_.size() + 1);
  for (const std::string& p : run_paths_) {
    Source s;
    s.reader = std::make_unique<SpillReader>();
    ECA_RETURN_IF_ERROR(s.reader->Open(p, stats_));
    sources.push_back(std::move(s));
  }
  {
    Source s;
    s.tail = &pending_;
    sources.push_back(std::move(s));
  }
  auto advance = [&](Source& s) -> Status {
    if (s.reader != nullptr) {
      bool eof = false;
      ECA_RETURN_IF_ERROR(s.reader->Next(&s.head.tag, &s.head.row, &eof));
      s.open = !eof;
    } else {
      if (s.tail_pos < s.tail->size()) {
        s.head = std::move((*s.tail)[s.tail_pos++]);
        s.open = true;
      } else {
        s.open = false;
      }
    }
    return Status::OK();
  };
  for (Source& s : sources) ECA_RETURN_IF_ERROR(advance(s));
  auto head_less = [&](const Source& a, const Source& b) {
    if (less_(a.head.row, b.head.row)) return true;
    if (less_(b.head.row, a.head.row)) return false;
    return a.head.tag < b.head.tag;
  };
  for (;;) {
    Source* next = nullptr;
    for (Source& s : sources) {
      if (!s.open) continue;
      if (next == nullptr || head_less(s, *next)) next = &s;
    }
    if (next == nullptr) break;
    ECA_RETURN_IF_ERROR(emit(next->head.tag, next->head.row));
    ECA_RETURN_IF_ERROR(advance(*next));
  }
  pending_.clear();
  pending_bytes_ = 0;
  return Status::OK();
}

}  // namespace eca
