// The seeded mutation set shared by the input fuzzers (trace files in
// trace_fuzz_test.cc, wire frames in frame_fuzz_test.cc). Each mutation is
// one edit of a byte string drawn from a util::Rng seeded by the caller,
// so every fuzz input replays from (input, mutation, seed). The set is
// text-aware (lines, tokens, digit runs) but works on any bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace aalo::fuzz {

enum Mutation {
  kFlipByte,
  kDeleteLine,
  kDuplicateLine,
  kTruncate,
  kSpliceToken,
  kStretchDigits,
  kReplaceNumber,
  kInsertControl,
  kMutationCount
};

/// [begin, end) spans of the runs of `text` that satisfy `in_run`.
template <typename InRun>
std::vector<std::pair<std::size_t, std::size_t>> spans(const std::string& text, InRun in_run) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < text.size();) {
    if (!in_run(text[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < text.size() && in_run(text[i])) ++i;
    out.emplace_back(begin, i);
  }
  return out;
}

inline bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// `text` with one seeded edit of kind `m` (unchanged if `text` has
/// nothing of the kind to edit).
inline std::string mutate(std::string text, Mutation m, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto isLine = [](char c) { return c != '\n'; };
  const auto isToken = [](char c) { return c != '\n' && c != ' ' && c != '\t' && c != '\r'; };
  const auto replace = [&](std::pair<std::size_t, std::size_t> span, const std::string& with) {
    text.replace(span.first, span.second - span.first, with);
  };
  if (text.empty()) return text;
  switch (m) {
    case kFlipByte:
      text[pick(text.size())] ^= static_cast<char>(1 + pick(255));
      break;
    case kDeleteLine:
      if (const auto lines = spans(text, isLine); !lines.empty()) {
        const auto line = lines[pick(lines.size())];
        text.erase(line.first, line.second - line.first + 1);
      }
      break;
    case kDuplicateLine:
      if (const auto lines = spans(text, isLine); !lines.empty()) {
        const auto line = lines[pick(lines.size())];
        text.insert(line.first, text.substr(line.first, line.second - line.first) + "\n");
      }
      break;
    case kTruncate:
      text.resize(pick(text.size() + 1));
      break;
    case kSpliceToken:
      if (const auto tokens = spans(text, isToken); !tokens.empty()) {
        const auto from = tokens[pick(tokens.size())];
        replace(tokens[pick(tokens.size())], text.substr(from.first, from.second - from.first));
      }
      break;
    case kStretchDigits:
      if (const auto digits = spans(text, isDigit); !digits.empty()) {
        const auto run = digits[pick(digits.size())];
        std::string stretched = text.substr(run.first, run.second - run.first);
        while (stretched.size() < 400) stretched += static_cast<char>('0' + pick(10));
        replace(run, stretched);
      }
      break;
    case kReplaceNumber: {
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (const auto& t : spans(text, isToken)) {
        if (isDigit(text[t.first]) || text[t.first] == '-') numbers.push_back(t);
      }
      if (!numbers.empty()) {
        static const char* const kBad[] = {"nan", "inf", "-1", "1e400"};
        replace(numbers[pick(numbers.size())], kBad[pick(4)]);
      }
      break;
    }
    case kInsertControl:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pick(text.size() + 1)),
                  pick(2) == 0 ? '\0' : '\r');
      break;
    case kMutationCount:
      break;
  }
  return text;
}

}  // namespace aalo::fuzz
