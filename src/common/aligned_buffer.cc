#include "common/aligned_buffer.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/check.h"

namespace turbo {

namespace {
constexpr size_t kAlignment = 64;

size_t round_up(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

AlignedBuffer::AlignedBuffer(size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  void* p = std::aligned_alloc(kAlignment, round_up(bytes, kAlignment));
  if (p == nullptr) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
#if defined(__SANITIZE_ADDRESS__)
  // Sanitizer builds: all-ones bytes read as a quiet NaN in float, double
  // and fp16, so a read before the first write poisons what it touches
  // every time instead of whenever a recycled heap block held a NaN.
  std::memset(data_, 0xff, size_);
#endif
}

AlignedBuffer::~AlignedBuffer() { std::free(data_); }

AlignedBuffer::AlignedBuffer(AlignedBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

AlignedBuffer& AlignedBuffer::operator=(AlignedBuffer&& other) noexcept {
  if (this != &other) {
    std::free(data_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void AlignedBuffer::zero() {
  if (data_ != nullptr) std::memset(data_, 0, size_);
}

}  // namespace turbo
