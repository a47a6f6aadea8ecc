// Wire-frame fuzz: seeded mutations of golden kScheduleUpdate,
// kScheduleDelta (one with entries, one heartbeat) and kSizeReport
// frames, and every truncation of them.
// The property: decodeMessage either throws (std::runtime_error or
// std::out_of_range, which every receive path counts in
// `malformed_frames`) or returns a message that encodes back to exactly
// the input bytes. So no accepted frame carries a value the codec cannot
// represent, and no bytes are silently ignored. The mutation set is the
// trace fuzzer's (fuzz_mutations.h); a failure names the frame, the
// mutation and the seed, which replay it.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_mutations.h"
#include "net/buffer.h"
#include "net/protocol.h"

namespace aalo::net {
namespace {

struct GoldenFrame {
  const char* name;
  Message message;
  std::vector<std::uint8_t> bytes;
};

std::vector<GoldenFrame> goldenFrames() {
  Message update;
  update.type = MessageType::kScheduleUpdate;
  update.epoch = 3;
  update.fence = 5;
  update.schedule = {{{1, 0}, 1.5, 0, true}, {{2, 3}, 2.0, 1, false}};

  Message delta;
  delta.type = MessageType::kScheduleDelta;
  delta.epoch = 3;
  delta.base_epoch = 2;
  delta.fence = 5;
  delta.schedule = {{{1, 2}, 1.5, 4, true}};
  delta.removals = {{7, 0}};
  delta.schedule_digest = 0x0807060504030201ULL;

  Message heartbeat;
  heartbeat.type = MessageType::kScheduleDelta;
  heartbeat.epoch = 4;
  heartbeat.base_epoch = 3;
  heartbeat.fence = 5;
  heartbeat.schedule_digest = 0x0807060504030201ULL;

  Message report;
  report.type = MessageType::kSizeReport;
  report.daemon_id = 9;
  report.epoch = 41;
  report.sizes = {{{3, 0}, 1.5}, {{4, 1}, 2.0}};

  return {
      {"kScheduleUpdate", update,
       {
           0x06,                        // type
           0x03, 0, 0, 0, 0, 0, 0, 0,   // epoch = 3
           0x05, 0, 0, 0, 0, 0, 0, 0,   // fence = 5
           0x02, 0, 0, 0,               // 2 entries
           0x01, 0, 0, 0, 0, 0, 0, 0,   // id.external = 1
           0x00, 0, 0, 0,               // id.internal = 0
           0, 0, 0, 0, 0, 0, 0xF8, 0x3F,  // bytes = 1.5
           0x00, 0, 0, 0,               // queue = 0
           0x01,                        // on
           0x02, 0, 0, 0, 0, 0, 0, 0,   // id.external = 2
           0x03, 0, 0, 0,               // id.internal = 3
           0, 0, 0, 0, 0, 0, 0, 0x40,   // bytes = 2.0
           0x01, 0, 0, 0,               // queue = 1
           0x00,                        // off
       }},
      {"kScheduleDelta", delta,
       {
           0x07,                        // type
           0x03, 0, 0, 0, 0, 0, 0, 0,   // epoch = 3
           0x02, 0, 0, 0, 0, 0, 0, 0,   // base_epoch = 2
           0x05, 0, 0, 0, 0, 0, 0, 0,   // fence = 5
           0x01, 0, 0, 0,               // 1 entry
           0x01, 0, 0, 0, 0, 0, 0, 0,   // id.external = 1
           0x02, 0, 0, 0,               // id.internal = 2
           0, 0, 0, 0, 0, 0, 0xF8, 0x3F,  // bytes = 1.5
           0x04, 0, 0, 0,               // queue = 4
           0x01,                        // on
           0x01, 0, 0, 0,               // 1 removal
           0x07, 0, 0, 0, 0, 0, 0, 0,   // removal.external = 7
           0x00, 0, 0, 0,               // removal.internal = 0
           0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // digest
       }},
      {"kScheduleDelta heartbeat", heartbeat,
       {
           0x07,                        // type
           0x04, 0, 0, 0, 0, 0, 0, 0,   // epoch = 4
           0x03, 0, 0, 0, 0, 0, 0, 0,   // base_epoch = 3
           0x05, 0, 0, 0, 0, 0, 0, 0,   // fence = 5
           0x00, 0, 0, 0,               // 0 entries
           0x00, 0, 0, 0,               // 0 removals
           0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // digest
       }},
      {"kSizeReport", report,
       {
           0x05,                        // type
           0x09, 0, 0, 0, 0, 0, 0, 0,   // daemon_id = 9
           0x29, 0, 0, 0, 0, 0, 0, 0,   // epoch = 41
           0x02, 0, 0, 0,               // 2 sizes
           0x03, 0, 0, 0, 0, 0, 0, 0,   // id.external = 3
           0x00, 0, 0, 0,               // id.internal = 0
           0, 0, 0, 0, 0, 0, 0xF8, 0x3F,  // bytes = 1.5
           0x04, 0, 0, 0, 0, 0, 0, 0,   // id.external = 4
           0x01, 0, 0, 0,               // id.internal = 1
           0, 0, 0, 0, 0, 0, 0, 0x40,   // bytes = 2.0
       }},
  };
}

std::string asString(const std::vector<std::uint8_t>& bytes) {
  return {bytes.begin(), bytes.end()};
}

std::string encoded(const Message& m) {
  Buffer out;
  encodeMessage(m, out);
  return {reinterpret_cast<const char*>(out.peek()), out.readableBytes()};
}

/// The fuzz property for one input; `where` tags a failure for replay.
/// Returns whether the input was accepted.
bool expectCleanOutcome(const std::string& bytes, const std::string& where) {
  Buffer in;
  in.append(bytes.data(), bytes.size());
  Message m;
  try {
    m = decodeMessage(in);
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::out_of_range&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": unexpected exception: " << e.what();
    return false;
  }
  EXPECT_EQ(encoded(m), bytes) << where << ": accepted frame re-encodes differently";
  return true;
}

TEST(FrameFuzz, GoldenFramesArePinned) {
  for (const GoldenFrame& g : goldenFrames()) {
    EXPECT_EQ(encoded(g.message), asString(g.bytes)) << g.name;
    EXPECT_TRUE(expectCleanOutcome(asString(g.bytes), g.name)) << g.name;
  }
}

TEST(FrameFuzz, EveryTruncationIsRejected) {
  for (const GoldenFrame& g : goldenFrames()) {
    const std::string bytes = asString(g.bytes);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(expectCleanOutcome(bytes.substr(0, len),
                                      std::string(g.name) + " truncated to " +
                                          std::to_string(len)));
    }
  }
}

TEST(FrameFuzz, MutatedFramesFailCleanlyOrRoundTrip) {
  for (const GoldenFrame& g : goldenFrames()) {
    const std::string bytes = asString(g.bytes);
    std::size_t accepted = 0, rejected = 0;
    for (int m = 0; m < fuzz::kMutationCount; ++m) {
      for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const auto mutation = static_cast<fuzz::Mutation>(m);
        const std::string once = fuzz::mutate(bytes, mutation, seed);
        const std::string where = std::string(g.name) + " mutation " +
                                  std::to_string(m) + " seed " +
                                  std::to_string(seed);
        ++(expectCleanOutcome(once, where) ? accepted : rejected);
        // A second, differently seeded edit on top of the first.
        const auto second = static_cast<fuzz::Mutation>(seed % fuzz::kMutationCount);
        const std::string twice = fuzz::mutate(once, second, seed + 1'000'000);
        ++(expectCleanOutcome(twice, where + " then mutation " +
                                         std::to_string(static_cast<int>(second)))
               ? accepted
               : rejected);
      }
    }
    // Both outcomes must occur, or the property above is vacuous.
    EXPECT_GT(accepted, 0u) << g.name;
    EXPECT_GT(rejected, 0u) << g.name;
  }
}

// Receive paths decode every frame into one long-lived Message. The reuse
// must not show: after any sequence of frames, accepted or rejected, the
// in-place decode of a frame equals a fresh by-value decode of it, so no
// field of an earlier (or malformed) frame survives into a later one.
TEST(FrameFuzz, InPlaceDecodeIntoOneMessageMatchesByValueDecode) {
  const std::vector<GoldenFrame> golden = goldenFrames();
  // Update, delta, report, heartbeat: a delta is followed by a report and
  // a report by a heartbeat. Then, after each golden frame comes a
  // mutation of one of the others, so valid and malformed frames
  // alternate.
  const GoldenFrame* order[] = {&golden[0], &golden[1], &golden[3], &golden[2]};
  Message reused;
  std::size_t accepted = 0, rejected = 0;
  const auto check = [&](const std::string& bytes, const std::string& where) {
    Buffer by_value_in, in_place_in;
    by_value_in.append(bytes.data(), bytes.size());
    in_place_in.append(bytes.data(), bytes.size());
    std::optional<Message> by_value;
    try {
      by_value = decodeMessage(by_value_in);
    } catch (const std::exception&) {
    }
    bool in_place = true;
    try {
      decodeMessage(in_place_in, reused);
    } catch (const std::exception&) {
      in_place = false;
    }
    ASSERT_EQ(in_place, by_value.has_value()) << where;
    if (!in_place) {
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_TRUE(reused == *by_value) << where;
    EXPECT_EQ(encoded(reused), bytes) << where;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const GoldenFrame* frame : order) check(asString(frame->bytes), frame->name);
  }
  for (int m = 0; m < fuzz::kMutationCount; ++m) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      for (std::size_t k = 0; k < 4; ++k) {
        const GoldenFrame& frame = *order[k];
        check(asString(frame.bytes), frame.name);
        const GoldenFrame& other = *order[(k + 1 + seed % 3) % 4];
        check(fuzz::mutate(asString(other.bytes), static_cast<fuzz::Mutation>(m), seed),
              std::string(other.name) + " mutation " + std::to_string(m) +
                  " seed " + std::to_string(seed) + " after " + frame.name);
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace aalo::net
