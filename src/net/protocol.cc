#include "net/protocol.h"

#include <stdexcept>

namespace aalo::net {

namespace {

void putCoflowId(Buffer& out, const coflow::CoflowId& id) {
  out.putI64(id.external);
  out.putU32(static_cast<std::uint32_t>(id.internal));
}

coflow::CoflowId getCoflowId(Buffer& in) {
  coflow::CoflowId id;
  id.external = in.getI64();
  id.internal = static_cast<std::int32_t>(in.getU32());
  return id;
}

// Smallest wire encodings of the repeated elements.
constexpr std::size_t kIdBytes = 12;
constexpr std::size_t kSizeBytes = kIdBytes + 8;
constexpr std::size_t kEntryBytes = kIdBytes + 8 + 4 + 1;

/// Reads an element count and rejects it unless that many elements of at
/// least `min_bytes` each fit in the rest of the frame, so a corrupt count
/// cannot make the decoder reserve() gigabytes.
std::uint32_t getCount(Buffer& in, std::size_t min_bytes) {
  const std::uint32_t n = in.getU32();
  if (n > in.readableBytes() / min_bytes) {
    throw std::runtime_error("decodeMessage: element count " +
                             std::to_string(n) + " overruns the frame");
  }
  return n;
}

}  // namespace

void encodeMessage(const Message& message, Buffer& out) {
  out.putU8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case MessageType::kHello:
      out.putU64(message.daemon_id);
      break;
    case MessageType::kRegisterCoflow:
      out.putU64(message.request_id);
      out.putU32(static_cast<std::uint32_t>(message.parents.size()));
      for (const auto& p : message.parents) putCoflowId(out, p);
      break;
    case MessageType::kRegisterReply:
      out.putU64(message.request_id);
      putCoflowId(out, message.coflow);
      break;
    case MessageType::kUnregisterCoflow:
      putCoflowId(out, message.coflow);
      break;
    case MessageType::kSizeReport:
      out.putU64(message.daemon_id);
      out.putU64(message.epoch);
      out.putU32(static_cast<std::uint32_t>(message.sizes.size()));
      for (const auto& s : message.sizes) {
        putCoflowId(out, s.id);
        out.putDouble(s.bytes);
      }
      break;
    case MessageType::kScheduleUpdate:
      out.putU64(message.epoch);
      out.putU64(message.fence);
      out.putU32(static_cast<std::uint32_t>(message.schedule.size()));
      for (const auto& e : message.schedule) {
        putCoflowId(out, e.id);
        out.putDouble(e.global_bytes);
        out.putU32(static_cast<std::uint32_t>(e.queue));
        out.putU8(e.on ? 1 : 0);
      }
      break;
    case MessageType::kScheduleDelta:
      out.putU64(message.epoch);
      out.putU64(message.base_epoch);
      out.putU64(message.fence);
      out.putU32(static_cast<std::uint32_t>(message.schedule.size()));
      for (const auto& e : message.schedule) {
        putCoflowId(out, e.id);
        out.putDouble(e.global_bytes);
        out.putU32(static_cast<std::uint32_t>(e.queue));
        out.putU8(e.on ? 1 : 0);
      }
      out.putU32(static_cast<std::uint32_t>(message.removals.size()));
      for (const auto& id : message.removals) putCoflowId(out, id);
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

Message decodeMessage(Buffer& in) {
  Message message;
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
    case MessageType::kRegisterCoflow: {
      message.request_id = in.getU64();
      const std::uint32_t n = getCount(in, kIdBytes);
      message.parents.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) message.parents.push_back(getCoflowId(in));
      break;
    }
    case MessageType::kRegisterReply:
      message.request_id = in.getU64();
      message.coflow = getCoflowId(in);
      break;
    case MessageType::kUnregisterCoflow:
      message.coflow = getCoflowId(in);
      break;
    case MessageType::kSizeReport: {
      message.daemon_id = in.getU64();
      message.epoch = in.getU64();
      const std::uint32_t n = getCount(in, kSizeBytes);
      message.sizes.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        CoflowSize s;
        s.id = getCoflowId(in);
        s.bytes = in.getDouble();
        message.sizes.push_back(s);
      }
      break;
    }
    case MessageType::kScheduleUpdate: {
      message.epoch = in.getU64();
      message.fence = in.getU64();
      const std::uint32_t n = getCount(in, kEntryBytes);
      message.schedule.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        ScheduleEntry e;
        e.id = getCoflowId(in);
        e.global_bytes = in.getDouble();
        e.queue = static_cast<std::int32_t>(in.getU32());
        e.on = in.getU8() != 0;
        message.schedule.push_back(e);
      }
      break;
    }
    case MessageType::kScheduleDelta: {
      message.epoch = in.getU64();
      message.base_epoch = in.getU64();
      message.fence = in.getU64();
      const std::uint32_t n = getCount(in, kEntryBytes);
      message.schedule.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        ScheduleEntry e;
        e.id = getCoflowId(in);
        e.global_bytes = in.getDouble();
        e.queue = static_cast<std::int32_t>(in.getU32());
        e.on = in.getU8() != 0;
        message.schedule.push_back(e);
      }
      const std::uint32_t r = getCount(in, kIdBytes);
      message.removals.reserve(r);
      for (std::uint32_t i = 0; i < r; ++i) {
        message.removals.push_back(getCoflowId(in));
      }
      break;
    }
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
  return message;
}

}  // namespace aalo::net
