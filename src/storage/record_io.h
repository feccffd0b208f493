#ifndef ECA_STORAGE_RECORD_IO_H_
#define ECA_STORAGE_RECORD_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace eca {

// The one on-disk record codec, shared by spill files (spill_file.h) and
// the persistent plan cache (cache_store.h): little-endian byte building,
// bounds-checked reading, FNV-1a checksummed record framing, and the
// Value encoding.
//
// A framed record is
//   u32 length   payload byte count
//   payload
//   u64 checksum FNV-1a over the length and the payload
//
// A Value is one header byte (type tag << 1 | null bit; tags 0 = int64,
// 1 = double, 2 = string) followed, when not NULL, by the i64, the
// double's bits as u64, or a u32 length plus the string bytes.

inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

// FNV-1a over `n` bytes, continuing from hash state `h`.
uint64_t FnvMix(uint64_t h, const unsigned char* p, size_t n);

void PutU8(std::vector<unsigned char>* b, uint8_t v);
void PutU32(std::vector<unsigned char>* b, uint32_t v);
void PutU64(std::vector<unsigned char>* b, uint64_t v);
void PutI32(std::vector<unsigned char>* b, int32_t v);
void PutF64(std::vector<unsigned char>* b, double d);
void PutString(std::vector<unsigned char>* b, const std::string& s);

// Record framing: BeginRecord reserves the length slot at the end of `b`
// and returns its offset; the caller appends the payload; EndRecord fills
// in the length and appends the checksum.
size_t BeginRecord(std::vector<unsigned char>* b);
void EndRecord(std::vector<unsigned char>* b, size_t start);

// Bounds-checked little-endian reader over [data, data + size). Every
// Get* returns a harmless zero value once `ok` has dropped; callers check
// ok at the decode boundaries, not after every field.
struct ByteReader {
  const unsigned char* data = nullptr;
  size_t size = 0;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t n);
  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  double GetF64();
  std::string GetString();
};

void EncodeValue(std::vector<unsigned char>* b, const Value& v);
// Drops r->ok on a bad type tag or a short buffer.
Value DecodeValue(ByteReader* r);

// The kDataLoss an injected I/O fault reports: `what` names the file kind
// ("spill", "cache"), `op` the failed operation.
Status InjectedIo(const char* what, const char* op, const std::string& path);

}  // namespace eca

#endif  // ECA_STORAGE_RECORD_IO_H_
