#include "runtime/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace aalo::runtime {
namespace {

constexpr char kMagic[8] = {'A', 'A', 'L', 'O', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kVersion = 1;

// Journal record types. 0 binds the journal to its base snapshot; the
// rest mirror the coordinator's state-changing inputs in arrival order.
constexpr std::uint8_t kRecJournalStart = 0;
constexpr std::uint8_t kRecReport = 1;      ///< encoded kSizeReport
constexpr std::uint8_t kRecRegister = 2;    ///< encoded kRegisterReply
constexpr std::uint8_t kRecUnregister = 3;  ///< encoded kUnregisterCoflow
constexpr std::uint8_t kRecDropDaemon = 4;  ///< raw u64 daemon_id
constexpr std::uint8_t kRecEpoch = 5;       ///< raw u64 epoch + u64 fence

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// [u32 len][type + body][u64 fnv1a(type + body)]: one journal record.
void frameRecord(net::Buffer& out, std::uint8_t type, const net::Buffer& body) {
  net::Buffer payload;
  payload.putU8(type);
  payload.append(body.readable());
  out.putU32(static_cast<std::uint32_t>(payload.readableBytes()));
  out.append(payload.readable());
  out.putU64(fnv1a(payload.readable()));
}

/// Decodes a journal record's embedded message into `m`; throws unless it
/// is of the record's kind.
void decodeAs(net::Buffer& payload, net::MessageType type, net::Message& m) {
  net::decodeMessage(payload, m);
  if (m.type != type) throw std::runtime_error("checkpoint: record kind mismatch");
}

/// Reads an element count and rejects it unless that many `bytes`-byte
/// elements fit in the rest of `in`, as the wire decoder does, so no
/// count can make restore() reserve more than the file holds.
std::uint32_t getCount(net::Buffer& in, std::size_t bytes) {
  const std::uint32_t n = in.getU32();
  if (n > in.readableBytes() / bytes) {
    throw std::runtime_error("checkpoint: count overruns the snapshot");
  }
  return n;
}

bool readFile(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

}  // namespace

Checkpoint::Checkpoint(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  snapshot_path_ = dir_ + "/schedule.ckpt";
  tmp_path_ = dir_ + "/schedule.ckpt.tmp";
  journal_path_ = dir_ + "/schedule.journal";
}

Checkpoint::~Checkpoint() {
  if (journal_out_.is_open()) flushJournal();
}

bool Checkpoint::hasData() const {
  std::error_code ec;
  return std::filesystem::exists(snapshot_path_, ec) ||
         std::filesystem::exists(journal_path_, ec);
}

bool Checkpoint::writeSnapshot(const ScheduleState& state,
                               const std::vector<coflow::CoflowId>& tombstones,
                               std::uint64_t fence, std::uint64_t epoch,
                               std::int64_t next_external,
                               const std::vector<util::Bytes>& thresholds,
                               std::size_t max_on) {
  net::Buffer out;
  out.append(kMagic, sizeof(kMagic));
  out.putU32(kVersion);
  out.putU64(fence);
  out.putU64(epoch);
  out.putI64(next_external);
  out.putU32(static_cast<std::uint32_t>(thresholds.size()));
  for (util::Bytes t : thresholds) out.putDouble(t);
  out.putU64(static_cast<std::uint64_t>(max_on));
  out.putU32(static_cast<std::uint32_t>(state.registeredCount()));
  state.forEachRegistered([&](const coflow::CoflowId& id) { net::putId(out, id); });
  out.putU32(static_cast<std::uint32_t>(tombstones.size()));
  for (const auto& id : tombstones) net::putId(out, id);
  // The format keys reports by daemon; the state keeps them per coflow,
  // so regroup.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<coflow::CoflowId, double>>>
      by_daemon;
  state.forEachReport(
      [&](std::uint64_t daemon_id, const coflow::CoflowId& id, double bytes) {
        by_daemon[daemon_id].emplace_back(id, bytes);
      });
  out.putU32(static_cast<std::uint32_t>(by_daemon.size()));
  for (const auto& [daemon_id, sizes] : by_daemon) {
    out.putU64(daemon_id);
    out.putU32(static_cast<std::uint32_t>(sizes.size()));
    for (const auto& [id, bytes] : sizes) {
      net::putId(out, id);
      out.putDouble(bytes);
    }
  }
  const std::uint64_t checksum = fnv1a(out.readable());
  out.putU64(checksum);

  {
    std::ofstream f(tmp_path_, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    const auto bytes = out.readable();
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path_, snapshot_path_, ec);
  if (ec) return false;

  // The on-disk snapshot is now authoritative; bind a fresh journal to it.
  base_checksum_ = checksum;
  pending_.clear();
  return openJournal(checksum, /*truncate=*/true);
}

void Checkpoint::journalReport(const net::Message& report) {
  net::Buffer body;
  net::encodeMessage(report, body);
  frameRecord(pending_, kRecReport, body);
}

void Checkpoint::journalRegister(const coflow::CoflowId& id,
                                 std::int64_t next_external) {
  net::Message m;
  m.type = net::MessageType::kRegisterReply;
  m.coflow = id;
  m.request_id = static_cast<std::uint64_t>(next_external);
  net::Buffer body;
  net::encodeMessage(m, body);
  frameRecord(pending_, kRecRegister, body);
}

void Checkpoint::journalUnregister(const coflow::CoflowId& id) {
  net::Message m;
  m.type = net::MessageType::kUnregisterCoflow;
  m.coflow = id;
  net::Buffer body;
  net::encodeMessage(m, body);
  frameRecord(pending_, kRecUnregister, body);
}

void Checkpoint::journalDropDaemon(std::uint64_t daemon_id) {
  net::Buffer body;
  body.putU64(daemon_id);
  frameRecord(pending_, kRecDropDaemon, body);
}

void Checkpoint::journalEpoch(std::uint64_t epoch, std::uint64_t fence) {
  net::Buffer body;
  body.putU64(epoch);
  body.putU64(fence);
  frameRecord(pending_, kRecEpoch, body);
}

bool Checkpoint::openJournal(std::uint64_t base_snapshot_checksum,
                             bool truncate) {
  if (journal_out_.is_open()) journal_out_.close();
  journal_out_.open(journal_path_,
                    std::ios::binary |
                        (truncate ? std::ios::trunc : std::ios::app));
  if (!journal_out_) return false;
  net::Buffer body;
  body.putU64(base_snapshot_checksum);
  // The start record goes straight to disk (not via pending_) so the
  // binding exists even if the process dies before the first flush.
  net::Buffer framed;
  frameRecord(framed, kRecJournalStart, body);
  const auto bytes = framed.readable();
  journal_out_.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
  journal_out_.flush();
  return journal_out_.good();
}

bool Checkpoint::flushJournal() {
  if (pending_.empty()) return true;
  if (!journal_out_.is_open() &&
      !openJournal(base_checksum_, /*truncate=*/true)) {
    return false;
  }
  const auto bytes = pending_.readable();
  journal_out_.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
  journal_out_.flush();
  pending_.clear();
  return journal_out_.good();
}

std::optional<Checkpoint::Restored> Checkpoint::restore(
    ScheduleState& state, const std::vector<util::Bytes>& thresholds,
    std::size_t max_on) {
  std::vector<std::uint8_t> snap_bytes;
  const bool have_snapshot = readFile(snapshot_path_, snap_bytes);
  std::vector<std::uint8_t> journal_bytes;
  const bool have_journal = readFile(journal_path_, journal_bytes);
  if (!have_snapshot && !have_journal) return std::nullopt;

  Restored restored;
  std::uint64_t snapshot_checksum = 0;
  std::unordered_set<coflow::CoflowId> tombstoned;

  if (have_snapshot) {
    if (snap_bytes.size() < sizeof(kMagic) + 4 + 8) return std::nullopt;
    const std::span<const std::uint8_t> content(snap_bytes.data(),
                                                snap_bytes.size() - 8);
    snapshot_checksum = fnv1a(content);
    // Checksum first: nothing below parses bytes the trailer disowns.
    net::Buffer in;
    in.append(snap_bytes.data() + content.size(), 8);
    if (in.getU64() != snapshot_checksum) return std::nullopt;
    in.append(content);
    try {
      if (std::memcmp(in.peek(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
      in.consume(sizeof(kMagic));
      if (in.getU32() != kVersion) return std::nullopt;
      restored.fence = in.getU64();
      restored.epoch = in.getU64();
      restored.next_external = in.getI64();
      const std::uint32_t n_thresholds = in.getU32();
      if (n_thresholds != thresholds.size()) return std::nullopt;
      for (std::uint32_t i = 0; i < n_thresholds; ++i) {
        if (!util::nearlyEqual(in.getDouble(), thresholds[i])) {
          return std::nullopt;
        }
      }
      if (in.getU64() != static_cast<std::uint64_t>(max_on)) {
        return std::nullopt;
      }
      const std::uint32_t n_registered = getCount(in, net::kIdBytes);
      std::vector<coflow::CoflowId> registered;
      registered.reserve(n_registered);
      for (std::uint32_t i = 0; i < n_registered; ++i) {
        registered.push_back(net::getId(in));
      }
      const std::uint32_t n_tombstones = getCount(in, net::kIdBytes);
      for (std::uint32_t i = 0; i < n_tombstones; ++i) {
        const coflow::CoflowId id = net::getId(in);
        tombstoned.insert(id);
      }
      std::vector<std::tuple<std::uint64_t, coflow::CoflowId, double>> reports;
      const std::uint32_t n_daemons = getCount(in, 8 + 4);
      for (std::uint32_t i = 0; i < n_daemons; ++i) {
        const std::uint64_t daemon_id = in.getU64();
        const std::uint32_t n_sizes = getCount(in, net::kIdBytes + 8);
        for (std::uint32_t j = 0; j < n_sizes; ++j) {
          const coflow::CoflowId id = net::getId(in);
          const double bytes = in.getDouble();
          if (!isValidReportedSize(bytes)) return std::nullopt;
          reports.emplace_back(daemon_id, id, bytes);
        }
      }
      if (!in.empty()) return std::nullopt;  // Trailing garbage.
      // Parsed end to end: now (and only now) mutate state.
      for (const auto& id : registered) state.registerCoflow(id);
      for (const auto& [daemon_id, id, bytes] : reports) {
        state.applySize(daemon_id, id, bytes);
      }
    } catch (const std::exception&) {
      return std::nullopt;  // Truncated snapshot.
    }
  }

  if (have_journal) {
    net::Buffer in;
    in.append(journal_bytes.data(), journal_bytes.size());
    bool first = true;
    bool journal_valid = true;
    net::Buffer payload;
    net::Message m;  // Every record decodes into this one message.
    while (!in.empty()) {
      payload.clear();
      try {
        const std::uint32_t len = in.getU32();
        if (len == 0 || len > in.readableBytes()) break;  // Torn tail.
        payload.append(in.peek(), len);
        in.consume(len);
        if (in.getU64() != fnv1a(payload.readable())) break;  // Torn tail.
      } catch (const std::exception&) {
        break;  // Torn tail.
      }
      std::uint8_t type = 0;
      try {
        type = payload.getU8();
        if (first) {
          first = false;
          if (type != kRecJournalStart ||
              payload.getU64() != snapshot_checksum) {
            // A journal that does not build on this snapshot is either
            // stale (crash between snapshot rename and journal truncate —
            // the snapshot alone is complete, drop the journal) or
            // orphaned (its base snapshot is gone — unrecoverable).
            journal_valid = false;
          }
          continue;
        }
        if (!journal_valid) break;
        switch (type) {
          case kRecReport: {
            decodeAs(payload, net::MessageType::kSizeReport, m);
            for (const auto& size : m.sizes) {
              if (!isValidReportedSize(size.bytes)) return std::nullopt;
              // Only applied sizes are journaled and collecting a
              // tombstone is not: a size for a tombstoned id shows that
              // its tombstone was collected before the report arrived.
              tombstoned.erase(size.id);
              state.applySize(m.daemon_id, size.id, size.bytes);
            }
            restored.epoch = std::max(restored.epoch, m.epoch);
            break;
          }
          case kRecRegister: {
            decodeAs(payload, net::MessageType::kRegisterReply, m);
            state.registerCoflow(m.coflow);
            restored.next_external =
                std::max(restored.next_external,
                         static_cast<std::int64_t>(m.request_id));
            break;
          }
          case kRecUnregister: {
            decodeAs(payload, net::MessageType::kUnregisterCoflow, m);
            state.unregisterCoflow(m.coflow);
            tombstoned.insert(m.coflow);
            break;
          }
          case kRecDropDaemon:
            state.dropDaemon(payload.getU64());
            break;
          case kRecEpoch: {
            restored.epoch = std::max(restored.epoch, payload.getU64());
            restored.fence = std::max(restored.fence, payload.getU64());
            break;
          }
          default:
            return std::nullopt;  // Unknown record in a valid checksum:
                                  // format from the future, refuse.
        }
      } catch (const std::exception&) {
        return std::nullopt;  // Checksummed-but-undecodable record.
      }
      ++restored.journal_records;
    }
    if (!have_snapshot && (first || !journal_valid)) {
      // Journal-only checkpoint with no readable start record, or one
      // whose base snapshot is gone: unrecoverable.
      return std::nullopt;
    }
    // (first && have_snapshot): journal empty/torn before its start
    // record — the snapshot alone is still consistent, proceed.
  } else if (!have_snapshot) {
    return std::nullopt;
  }

  restored.tombstones.assign(tombstoned.begin(), tombstoned.end());
  std::sort(restored.tombstones.begin(), restored.tombstones.end(),
            coflow::CoflowIdFifoLess{});
  if (restored.fence == 0) restored.fence = 1;
  return restored;
}

}  // namespace aalo::runtime
