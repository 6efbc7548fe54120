// The one checked file layer under the binary index and graph cache files.
// BinaryWriter writes a file atomically with a trailing Checksum64 of every
// byte before it; BinaryReader reads one back, bounding every read by the
// bytes left in the file (so a corrupt count read from an untrusted file
// fails the read instead of sizing an allocation) and folding every read
// into the checksum it verifies at the end. Arrays move with one stream
// call and are fingerprinted as they pass through memory, so verifying a
// file needs no second pass over it. The checksum runs four independent
// multiply chains, so hashing a file costs less than reading it.
// RetiredMagic names an older version of a format, for the loaders'
// rejection messages.

#ifndef QBS_UTIL_BINARY_IO_H_
#define QBS_UTIL_BINARY_IO_H_

#include <algorithm>
#include <array>
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

/// A fast 64-bit checksum of a byte stream; the digest does not depend on
/// how the stream is split into Update() calls. Word i of the stream (8
/// bytes, the last one zero-padded) is folded into lane i mod 4, each lane
/// from its own seed, so the four chains are independent and the CPU runs
/// them side by side; Digest() folds the lanes into one word with the same
/// step. For a fixed state the step is a bijection of the word, and for a
/// fixed word a bijection of the state, and the finalizer is a bijection
/// too, so a change confined to one word — any single corrupted byte —
/// always changes the digest.
class Checksum64 {
 public:
  /// Folds in the bytes of `count` PODs.
  template <typename T>
  void Update(const T* data, uint64_t count) {
    UpdateBytes(reinterpret_cast<const unsigned char*>(data),
                count * sizeof(T));
  }

  uint64_t Digest() const {
    auto lanes = lanes_;
    unsigned char tail[kBlock] = {};  // the last word zero-padded
    std::memcpy(tail, buffer_, buffered_);
    for (uint64_t i = 0; 8 * i < buffered_; ++i) {
      lanes[i] = Step(lanes[i], Word(tail + 8 * i));
    }
    uint64_t h = lanes[0];
    for (int i = 1; i < kLanes; ++i) h = Step(h, lanes[i]);
    // The length tells a zero-padded tail from real zero bytes; the
    // murmur3 fmix64 finalizer spreads every bit over the digest.
    h ^= length_;
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDull;
    h = (h ^ (h >> 33)) * 0xC4CEB9FE1A85EC53ull;
    return h ^ (h >> 33);
  }

 private:
  static constexpr int kLanes = 4;
  static constexpr uint64_t kBlock = 8 * kLanes;  // one word per lane

  static uint64_t Word(const unsigned char* p) {
    uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }

  static uint64_t Step(uint64_t h, uint64_t w) {
    return (std::rotl(h, 29) ^ w) * 0x9E3779B97F4A7C15ull;  // odd multiplier
  }

  // Folds `blocks` whole blocks into the lanes. The lanes are held in four
  // locals: a loop over an array, or a store to a member (which could
  // alias `p`'s bytes), would keep them in memory, in each chain's path.
  void FoldBlocks(const unsigned char* p, uint64_t blocks) {
    uint64_t a = lanes_[0], b = lanes_[1], c = lanes_[2], d = lanes_[3];
    for (; blocks > 0; --blocks, p += kBlock) {
      a = Step(a, Word(p));
      b = Step(b, Word(p + 8));
      c = Step(c, Word(p + 16));
      d = Step(d, Word(p + 24));
    }
    lanes_ = {a, b, c, d};
  }

  void UpdateBytes(const unsigned char* p, uint64_t len) {
    if (len == 0) return;  // p may be null (an empty vector's data())
    length_ += len;
    if (buffered_ > 0) {
      const uint64_t take = std::min(len, kBlock - buffered_);
      std::memcpy(buffer_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      len -= take;
      if (buffered_ < kBlock) return;
      FoldBlocks(buffer_, 1);
      buffered_ = 0;
    }
    FoldBlocks(p, len / kBlock);
    p += len - len % kBlock;
    len %= kBlock;
    std::memcpy(buffer_, p, len);
    buffered_ = len;
  }

  // The first four 64-bit words of pi's fraction.
  std::array<uint64_t, kLanes> lanes_ = {
      0x243F6A8885A308D3ull, 0x13198A2E03707344ull, 0xA4093822299F31D0ull,
      0x082EFA98EC4E6C89ull};
  uint64_t length_ = 0;
  unsigned char buffer_[kBlock] = {};  // bytes of a block not yet folded in
  uint64_t buffered_ = 0;
};

/// A checked file opens with an 8-byte magic: a 7-byte family name
/// ("QBSIDX0", "QBSGRF0") and a version digit. Returns `magic` as text
/// ("QBSGRF03") if it is `current`'s family with another version digit,
/// and "" otherwise, so a loader can name a retired format it rejects.
inline std::string RetiredMagic(uint64_t magic, uint64_t current) {
  constexpr uint64_t kFamily = (uint64_t{1} << 56) - 1;  // the first 7 bytes
  const auto digit = static_cast<char>(magic >> 56);
  if ((magic & kFamily) != (current & kFamily) || magic == current ||
      digit < '0' || digit > '9') {
    return "";
  }
  std::string name(sizeof(magic), '\0');
  std::memcpy(name.data(), &magic, sizeof(magic));
  return name;
}

/// Writes a checked file: the bytes go to `path + ".tmp"`, folded into a
/// Checksum64 on the way, and Commit() appends the digest and renames the
/// file into place. A crash or a failure mid-write therefore never leaves
/// a half-written file at `path`: the tmp file is removed on any failure,
/// and a writer destroyed before Commit() removes it too.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path)
      : path_(path),
        tmp_(path + ".tmp"),
        out_(tmp_, std::ios::binary | std::ios::trunc),
        owns_tmp_(out_.is_open()) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  ~BinaryWriter() {
    if (!owns_tmp_) return;
    out_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);
  }

  /// Writes `count` PODs with one stream call.
  template <typename T>
  void Write(const T* data, uint64_t count = 1) {
    out_.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(count * sizeof(T)));
    sum_.Update(data, count);
  }

  /// Appends the checksum and renames the file into place; false on any
  /// I/O failure, after which the destructor removes the tmp file.
  bool Commit() {
    const uint64_t digest = sum_.Digest();
    out_.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
    out_.close();
    if (!out_) return false;
    std::error_code ec;
    std::filesystem::rename(tmp_, path_, ec);
    owns_tmp_ = static_cast<bool>(ec);
    return !ec;
  }

 private:
  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  bool owns_tmp_;  // the tmp file is ours to remove
  Checksum64 sum_;
};

/// A checked file open for reading: every read is bounded by the bytes
/// left in the file and folded into a Checksum64, which VerifyChecksum()
/// compares with the digest BinaryWriter::Commit() appended.
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
    if (!ReadUnchecked(data, count)) return false;
    sum_.Update(data, count);
    return true;
  }

  /// Read() into `out`, resized only once the bytes are known to be there.
  template <typename T>
  bool ReadArray(std::vector<T>* out, uint64_t count) {
    if (count > left_ / sizeof(T)) return false;
    out->resize(count);
    return Read(out->data(), count);
  }

  /// The closing call: true iff the file's last 8 bytes follow, and are the
  /// Checksum64 of every byte read before them.
  bool VerifyChecksum() {
    uint64_t stored = 0;
    return ReadUnchecked(&stored) && stored == sum_.Digest() && left_ == 0;
  }

 private:
  template <typename T>
  bool ReadUnchecked(T* data, uint64_t count = 1) {
    if (count > left_ / sizeof(T)) return false;
    left_ -= count * sizeof(T);
    return count == 0 ||
           in_.read(reinterpret_cast<char*>(data),
                    static_cast<std::streamsize>(count * sizeof(T)));
  }

  std::ifstream in_;
  uint64_t left_ = 0;
  Checksum64 sum_;
};

}  // namespace qbs

#endif  // QBS_UTIL_BINARY_IO_H_
