#include "storage/record_io.h"

#include <cstring>

namespace eca {

uint64_t FnvMix(uint64_t h, const unsigned char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void PutU8(std::vector<unsigned char>* b, uint8_t v) { b->push_back(v); }

void PutU32(std::vector<unsigned char>* b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b->push_back((v >> (8 * i)) & 0xff);
}

void PutU64(std::vector<unsigned char>* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b->push_back((v >> (8 * i)) & 0xff);
}

void PutI32(std::vector<unsigned char>* b, int32_t v) {
  PutU32(b, static_cast<uint32_t>(v));
}

void PutF64(std::vector<unsigned char>* b, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  PutU64(b, bits);
}

void PutString(std::vector<unsigned char>* b, const std::string& s) {
  PutU32(b, static_cast<uint32_t>(s.size()));
  b->insert(b->end(), s.begin(), s.end());
}

size_t BeginRecord(std::vector<unsigned char>* b) {
  size_t start = b->size();
  PutU32(b, 0);
  return start;
}

void EndRecord(std::vector<unsigned char>* b, size_t start) {
  uint32_t len = static_cast<uint32_t>(b->size() - start - 4);
  for (int i = 0; i < 4; ++i) (*b)[start + i] = (len >> (8 * i)) & 0xff;
  PutU64(b, FnvMix(kFnvOffset, b->data() + start, b->size() - start));
}

bool ByteReader::Need(size_t n) {
  if (!ok || pos > size || size - pos < n) {
    ok = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::GetU8() {
  if (!Need(1)) return 0;
  return data[pos++];
}

uint32_t ByteReader::GetU32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data[pos++]) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::GetU64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data[pos++]) << (8 * i);
  }
  return v;
}

double ByteReader::GetF64() {
  uint64_t bits = GetU64();
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string ByteReader::GetString() {
  uint32_t len = GetU32();
  if (!Need(len)) return std::string();
  std::string s(reinterpret_cast<const char*>(data + pos), len);
  pos += len;
  return s;
}

void EncodeValue(std::vector<unsigned char>* b, const Value& v) {
  uint8_t tag = 0;
  switch (v.type()) {
    case DataType::kInt64:
      tag = 0;
      break;
    case DataType::kDouble:
      tag = 1;
      break;
    case DataType::kString:
      tag = 2;
      break;
  }
  PutU8(b, static_cast<uint8_t>((tag << 1) | (v.is_null() ? 1 : 0)));
  if (v.is_null()) return;
  switch (v.type()) {
    case DataType::kInt64:
      PutU64(b, static_cast<uint64_t>(v.AsInt()));
      break;
    case DataType::kDouble:
      PutF64(b, v.AsDouble());
      break;
    case DataType::kString:
      PutString(b, v.AsStr());
      break;
  }
}

Value DecodeValue(ByteReader* r) {
  uint8_t h = r->GetU8();
  bool null = (h & 1) != 0;
  uint8_t tag = h >> 1;
  if (tag > 2) {
    r->ok = false;
    return Value();
  }
  DataType type = tag == 0   ? DataType::kInt64
                  : tag == 1 ? DataType::kDouble
                             : DataType::kString;
  if (null) return Value::Null(type);
  switch (type) {
    case DataType::kInt64:
      return Value::Int(static_cast<int64_t>(r->GetU64()));
    case DataType::kDouble:
      return Value::Real(r->GetF64());
    case DataType::kString:
      return Value::Str(r->GetString());
  }
  r->ok = false;
  return Value();
}

Status InjectedIo(const char* what, const char* op, const std::string& path) {
  return Status::DataLoss(std::string(what) + " I/O fault injected during " +
                          op + " of " + path);
}

}  // namespace eca
