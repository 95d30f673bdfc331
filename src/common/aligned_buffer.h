// 64-byte-aligned owned byte buffer. Models a raw device allocation: all
// tensor storage (whether owned directly or placed inside an allocator
// chunk) ultimately lives in one of these. A new buffer's bytes are
// unspecified, as cudaMalloc's are; in AddressSanitizer builds they are
// all 0xff (NaN as a float), so reading one before writing it shows.
#pragma once

#include <cstddef>
#include <cstdint>

namespace turbo {

class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t bytes);
  ~AlignedBuffer();

  AlignedBuffer(AlignedBuffer&& other) noexcept;
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Zero-fill the buffer (models cudaMemset).
  void zero();

 private:
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace turbo
