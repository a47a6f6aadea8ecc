#include "net/buffer.h"

#include <cstring>
#include <stdexcept>

namespace aalo::net {

void Buffer::append(const void* data, std::size_t len) {
  if (len == 0) return;  // memcpy with an empty buffer's null data() is UB.
  std::memcpy(writableArea(len), data, len);
  commitWrite(len);
}

void Buffer::consume(std::size_t len) {
  if (len > readableBytes()) throw std::out_of_range("Buffer::consume overrun");
  read_pos_ += len;
  if (read_pos_ == write_pos_) {
    read_pos_ = write_pos_ = 0;  // Cheap reset when drained.
  }
}

std::uint8_t* Buffer::writableArea(std::size_t len) {
  if (write_pos_ + len > data_.size()) {
    compact();
    if (write_pos_ + len > data_.size()) {
      data_.resize(std::max(data_.size() * 2 + 64, write_pos_ + len));
    }
  }
  return data_.data() + write_pos_;
}

void Buffer::compact() {
  if (read_pos_ == 0) return;
  std::memmove(data_.data(), data_.data() + read_pos_, readableBytes());
  write_pos_ -= read_pos_;
  read_pos_ = 0;
}

void Buffer::clear() { read_pos_ = write_pos_ = 0; }

void Buffer::putU32(std::uint32_t v) {
  std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                       static_cast<std::uint8_t>(v >> 16),
                       static_cast<std::uint8_t>(v >> 24)};
  append(b, 4);
}

void Buffer::putU64(std::uint64_t v) {
  putU32(static_cast<std::uint32_t>(v));
  putU32(static_cast<std::uint32_t>(v >> 32));
}

void Buffer::putDouble(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  putU64(bits);
}

void Buffer::putString(const std::string& s) {
  putU32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

std::uint8_t Buffer::getU8() {
  if (readableBytes() < 1) throw std::out_of_range("Buffer::getU8 underrun");
  const std::uint8_t v = *peek();
  consume(1);
  return v;
}

std::uint32_t Buffer::getU32() {
  if (readableBytes() < 4) throw std::out_of_range("Buffer::getU32 underrun");
  const std::uint8_t* p = peek();
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16) |
                          (static_cast<std::uint32_t>(p[3]) << 24);
  consume(4);
  return v;
}

std::uint64_t Buffer::getU64() {
  const std::uint64_t lo = getU32();
  const std::uint64_t hi = getU32();
  return lo | (hi << 32);
}

double Buffer::getDouble() {
  const std::uint64_t bits = getU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Buffer::getString() {
  const std::uint32_t len = getU32();
  if (readableBytes() < len) throw std::out_of_range("Buffer::getString underrun");
  std::string s(reinterpret_cast<const char*>(peek()), len);
  consume(len);
  return s;
}

}  // namespace aalo::net
