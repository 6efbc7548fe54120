// Raw POD I/O for the binary index and graph cache files: arrays move with
// one stream call, and reads are bounded by the file's size, so a corrupt
// count read from an untrusted file fails the read instead of sizing an
// allocation. Checksum64 fingerprints the bytes as they pass through
// memory, so verifying a file needs no second pass over it.

#ifndef QBS_UTIL_BINARY_IO_H_
#define QBS_UTIL_BINARY_IO_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ios>
#include <string>
#include <system_error>
#include <vector>

namespace qbs {

/// Writes `count` PODs with one stream call.
template <typename T>
void WriteArray(std::ofstream& out, const T* data, uint64_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  WriteArray(out, &value, 1);
}

/// A fast 64-bit checksum of a byte stream; the digest does not depend on
/// how the stream is split into Update() calls. Each 8-byte word is folded
/// in by a step that, for a fixed state, is a bijection of the word (and
/// vice versa), and the finalizer is a bijection too, so a change confined
/// to one word — any single corrupted byte — always changes the digest.
class Checksum64 {
 public:
  /// Folds in the bytes of `count` PODs.
  template <typename T>
  void Update(const T* data, uint64_t count) {
    UpdateBytes(reinterpret_cast<const unsigned char*>(data),
                count * sizeof(T));
  }

  uint64_t Digest() const {
    uint64_t h = state_;
    if (buffered_ > 0) {
      unsigned char last[8] = {};  // the final partial word, zero-padded
      std::memcpy(last, buffer_, buffered_);
      h = Fold(h, last);
    }
    // The length tells a zero-padded tail from real zero bytes; the
    // murmur3 fmix64 finalizer spreads every bit over the digest.
    h ^= length_;
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDull;
    h = (h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53ull;
    return h ^ (h >> 33);
  }

 private:
  static uint64_t Fold(uint64_t h, const unsigned char* word) {
    uint64_t w = 0;
    std::memcpy(&w, word, sizeof(w));
    return (std::rotl(h, 29) ^ w) * 0x9E3779B97F4A7C15ull;  // odd multiplier
  }

  void UpdateBytes(const unsigned char* p, uint64_t len) {
    if (len == 0) return;  // p may be null (an empty vector's data())
    length_ += len;
    if (buffered_ > 0) {
      const uint64_t take = std::min<uint64_t>(len, 8 - buffered_);
      std::memcpy(buffer_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      len -= take;
      if (buffered_ < 8) return;
      state_ = Fold(state_, buffer_);
      buffered_ = 0;
    }
    for (; len >= 8; p += 8, len -= 8) state_ = Fold(state_, p);
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }

  uint64_t state_ = 0x243F6A8885A308D3ull;
  uint64_t length_ = 0;
  unsigned char buffer_[8] = {};  // bytes of a word not yet folded in
  uint64_t buffered_ = 0;
};

/// A binary file open for reading that checks every read against the bytes
/// left in it.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path)
      : in_(path, std::ios::binary) {
    std::error_code ec;
    left_ = std::filesystem::file_size(path, ec);
    if (ec) in_.setstate(std::ios::failbit);
  }

  bool is_open() const { return static_cast<bool>(in_); }
  uint64_t left() const { return left_; }  // bytes not read yet

  /// Reads `count` PODs with one stream call; false if the file is short.
  template <typename T>
  bool Read(T* data, uint64_t count = 1) {
    if (count > left_ / sizeof(T)) return false;
    left_ -= count * sizeof(T);
    return count == 0 ||
           in_.read(reinterpret_cast<char*>(data),
                    static_cast<std::streamsize>(count * sizeof(T)));
  }

  /// Read() into `out`, resized only once the bytes are known to be there.
  template <typename T>
  bool ReadArray(std::vector<T>* out, uint64_t count) {
    if (count > left_ / sizeof(T)) return false;
    out->resize(count);
    return Read(out->data(), count);
  }

 private:
  std::ifstream in_;
  uint64_t left_ = 0;
};

}  // namespace qbs

#endif  // QBS_UTIL_BINARY_IO_H_
