#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace hgp::io {

/// Minimal binary encoding shared by the job codec and the HGPN wire
/// frames. Fixed-width host-endian integers (little-endian on every target
/// this project supports; a byte-swapped reader would fail the bounds checks
/// and reject the payload, not corrupt data) and raw IEEE-754 bit patterns
/// for doubles, so a round trip is bit-exact — the property the
/// cross-process bit-identical guarantees rest on. Readers never trust the
/// input: every read is bounds-checked and a failed read poisons the reader
/// instead of throwing, so a truncated or corrupted payload is rejected,
/// never half-decoded.

/// Appends fields to a byte buffer.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

 private:
  void raw(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string& out_;
};

/// Consumes fields from a byte range. After any failed read, ok() is false
/// and every subsequent read fails too (outputs untouched), so callers can
/// decode a whole record and check validity once at the end.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& buf) : Reader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  bool u8(std::uint8_t& v) { return raw(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return raw(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return raw(&v, sizeof v); }
  bool i32(std::int32_t& v) { return raw(&v, sizeof v); }
  bool f64(double& v) { return raw(&v, sizeof v); }
  bool str(std::string& s) {
    std::uint32_t n = 0;
    if (!u32(n) || n > remaining()) return fail();
    s.assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool raw(void* p, std::size_t n) {
    if (!ok_ || n > remaining()) return fail();
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte buffer — the per-frame checksum of the HGPN wire
/// protocol. Deliberately independent of the backend/schedule fingerprint
/// hashers (which use their own accumulation orders and, between them,
/// different offset bases): a checksum only needs writer/reader agreement,
/// and "unifying" the three would change every cache key and break wire
/// compatibility between peers of one protocol version.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace hgp::io
