// Raw POD I/O for the binary index and graph cache files: arrays move with
// one stream call, and reads are bounded by the file's size, so a corrupt
// count read from an untrusted file fails the read instead of sizing an
// allocation.

#ifndef QBS_UTIL_BINARY_IO_H_
#define QBS_UTIL_BINARY_IO_H_

#include <cstdint>
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
