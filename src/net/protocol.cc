#include "net/protocol.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace aalo::net {

namespace {

// Repeated elements (ids, sizes, schedule entries) are coded in bulk: one
// reserve or one bounds check per array, then fixed-width stores and loads
// on the raw frame bytes, in the little-endian layout of Buffer's own
// putU32/putU64/putDouble.
static_assert(std::endian::native == std::endian::little,
              "the bulk codec copies fields in host byte order");

template <typename T>
std::uint8_t* store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

template <typename T>
T load(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}

std::uint8_t* storeId(std::uint8_t* p, const coflow::CoflowId& id) {
  return store(store(p, id.external), id.internal);
}

coflow::CoflowId loadId(const std::uint8_t*& p) {
  coflow::CoflowId id;
  id.external = load<std::int64_t>(p);
  id.internal = load<std::int32_t>(p);
  return id;
}

// Wire sizes of the repeated elements.
constexpr std::size_t kSizeBytes = kIdBytes + 8;
constexpr std::size_t kEntryBytes = kIdBytes + 8 + 4 + 1;

/// Writes `items.size()` and then each item through `put(p, item)`, which
/// stores exactly `bytes` bytes.
template <typename T, typename Put>
void putAll(Buffer& out, const std::vector<T>& items, std::size_t bytes,
            Put put) {
  out.putU32(static_cast<std::uint32_t>(items.size()));
  const std::size_t total = items.size() * bytes;
  std::uint8_t* p = out.writableArea(total);
  for (const T& item : items) p = put(p, item);
  out.commitWrite(total);
}

/// Reads an element count, rejects it unless that many `bytes`-byte
/// elements fit in the rest of the frame (so a corrupt count cannot make
/// the decoder reserve() gigabytes), then decodes each through `get(p)`.
template <typename T, typename Get>
void getAll(Buffer& in, std::vector<T>& items, std::size_t bytes, Get get) {
  const std::uint32_t n = in.getU32();
  if (n > in.readableBytes() / bytes) {
    throw std::runtime_error("decodeMessage: element count " +
                             std::to_string(n) + " overruns the frame");
  }
  items.resize(n);
  const std::uint8_t* p = in.peek();
  for (T& item : items) item = get(p);
  in.consume(n * bytes);
}

void putIds(Buffer& out, const std::vector<coflow::CoflowId>& ids) {
  putAll(out, ids, kIdBytes, storeId);
}

void getIds(Buffer& in, std::vector<coflow::CoflowId>& ids) {
  getAll(in, ids, kIdBytes, loadId);
}

void putSizes(Buffer& out, const std::vector<CoflowSize>& sizes) {
  putAll(out, sizes, kSizeBytes, [](std::uint8_t* p, const CoflowSize& s) {
    return store(storeId(p, s.id), s.bytes);
  });
}

void getSizes(Buffer& in, std::vector<CoflowSize>& sizes) {
  getAll(in, sizes, kSizeBytes, [](const std::uint8_t*& p) {
    CoflowSize s;
    s.id = loadId(p);
    s.bytes = load<double>(p);
    return s;
  });
}

void putEntries(Buffer& out, const std::vector<ScheduleEntry>& entries) {
  putAll(out, entries, kEntryBytes,
         [](std::uint8_t* p, const ScheduleEntry& e) {
           p = store(store(storeId(p, e.id), e.global_bytes), e.queue);
           return store(p, std::uint8_t{e.on});
         });
}

void getEntries(Buffer& in, std::vector<ScheduleEntry>& entries) {
  getAll(in, entries, kEntryBytes, [](const std::uint8_t*& p) {
    ScheduleEntry e;
    e.id = loadId(p);
    e.global_bytes = load<double>(p);
    const auto queue = load<std::uint32_t>(p);
    const auto on = load<std::uint8_t>(p);
    // Either would decode to a value that encodes back to other bytes.
    if (queue > static_cast<std::uint32_t>(INT32_MAX)) {
      throw std::runtime_error("decodeMessage: queue " + std::to_string(queue) +
                               " is negative as an int32");
    }
    if (on > 1) {
      throw std::runtime_error("decodeMessage: ON flag " + std::to_string(on) +
                               " is neither 0 nor 1");
    }
    e.queue = static_cast<std::int32_t>(queue);
    e.on = on == 1;
    return e;
  });
}

}  // namespace

void putId(Buffer& out, const coflow::CoflowId& id) {
  storeId(out.writableArea(kIdBytes), id);
  out.commitWrite(kIdBytes);
}

coflow::CoflowId getId(Buffer& in) {
  if (in.readableBytes() < kIdBytes) {
    throw std::out_of_range("getId: coflow id underruns the buffer");
  }
  const std::uint8_t* p = in.peek();
  const coflow::CoflowId id = loadId(p);
  in.consume(kIdBytes);
  return id;
}

void encodeMessage(const Message& message, Buffer& out) {
  out.putU8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case MessageType::kHello:
      out.putU64(message.daemon_id);
      break;
    case MessageType::kRegisterCoflow:
      out.putU64(message.request_id);
      putIds(out, message.parents);
      break;
    case MessageType::kRegisterReply:
      out.putU64(message.request_id);
      putId(out, message.coflow);
      break;
    case MessageType::kUnregisterCoflow:
      putId(out, message.coflow);
      break;
    case MessageType::kSizeReport:
      out.putU64(message.daemon_id);
      out.putU64(message.epoch);
      putSizes(out, message.sizes);
      break;
    case MessageType::kScheduleUpdate:
      out.putU64(message.epoch);
      out.putU64(message.fence);
      putEntries(out, message.schedule);
      break;
    case MessageType::kScheduleDelta:
      out.putU64(message.epoch);
      out.putU64(message.base_epoch);
      out.putU64(message.fence);
      putEntries(out, message.schedule);
      putIds(out, message.removals);
      out.putU64(message.schedule_digest);
      break;
    case MessageType::kSnapshotRequest:
      out.putU64(message.daemon_id);
      out.putU64(message.epoch);
      break;
    case MessageType::kFollowerSubscribe:
      out.putU64(message.daemon_id);
      out.putU64(message.epoch);
      out.putU64(message.fence);
      break;
  }
}

void decodeMessage(Buffer& in, Message& message) {
  message.type = MessageType::kHello;
  message.daemon_id = 0;
  message.request_id = 0;
  message.epoch = 0;
  message.base_epoch = 0;
  message.fence = 0;
  message.coflow = {};
  message.parents.clear();
  message.sizes.clear();
  message.schedule.clear();
  message.removals.clear();
  message.schedule_digest = 0;
  const std::uint8_t raw_type = in.getU8();
  if (raw_type < 1 || raw_type > 9) {
    throw std::runtime_error("decodeMessage: unknown message type " +
                             std::to_string(raw_type));
  }
  message.type = static_cast<MessageType>(raw_type);
  switch (message.type) {
    case MessageType::kHello:
      message.daemon_id = in.getU64();
      break;
    case MessageType::kRegisterCoflow:
      message.request_id = in.getU64();
      getIds(in, message.parents);
      break;
    case MessageType::kRegisterReply:
      message.request_id = in.getU64();
      message.coflow = getId(in);
      break;
    case MessageType::kUnregisterCoflow:
      message.coflow = getId(in);
      break;
    case MessageType::kSizeReport:
      message.daemon_id = in.getU64();
      message.epoch = in.getU64();
      getSizes(in, message.sizes);
      break;
    case MessageType::kScheduleUpdate:
      message.epoch = in.getU64();
      message.fence = in.getU64();
      getEntries(in, message.schedule);
      break;
    case MessageType::kScheduleDelta:
      message.epoch = in.getU64();
      message.base_epoch = in.getU64();
      message.fence = in.getU64();
      getEntries(in, message.schedule);
      getIds(in, message.removals);
      message.schedule_digest = in.getU64();
      break;
    case MessageType::kSnapshotRequest:
      message.daemon_id = in.getU64();
      message.epoch = in.getU64();
      break;
    case MessageType::kFollowerSubscribe:
      message.daemon_id = in.getU64();
      message.epoch = in.getU64();
      message.fence = in.getU64();
      break;
  }
  if (!in.empty()) {
    throw std::runtime_error("decodeMessage: trailing bytes in frame");
  }
}

}  // namespace aalo::net
