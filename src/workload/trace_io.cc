#include "workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace aalo::workload {

namespace {

/// Size of the writer's buffer and of the reader's first block.
constexpr std::size_t kBlockBytes = 64 * 1024;

/// Formats records into one fixed block and hands it to the stream only
/// when it fills, and once at the end (flush()).
class BlockWriter {
 public:
  explicit BlockWriter(std::ostream& os)
      : os_(os),
        buf_(std::make_unique_for_overwrite<char[]>(kBlockBytes)),
        pos_(buf_.get()),
        end_(buf_.get() + kBlockBytes) {}

  /// Short literal text (record kinds, separators).
  BlockWriter& put(std::string_view text) {
    room(text.size());
    pos_ = std::copy(text.begin(), text.end(), pos_);
    return *this;
  }
  BlockWriter& put(char c) {
    room(1);
    *pos_++ = c;
    return *this;
  }
  /// Plain decimal, as `%lld` / `%llu`.
  BlockWriter& put(std::integral auto value) {
    room(kMaxNumberBytes);
    pos_ = std::to_chars(pos_, end_, value).ptr;
    return *this;
  }
  /// `%.17g`: enough digits that every double reads back bit-identically.
  BlockWriter& put(double value) {
    room(kMaxNumberBytes);
    pos_ = std::to_chars(pos_, end_, value, std::chars_format::general, 17).ptr;
    return *this;
  }
  BlockWriter& put(const coflow::CoflowId& id) {
    return put(id.external).put('.').put(id.internal);
  }

  void flush() {
    os_.write(buf_.get(), pos_ - buf_.get());
    pos_ = buf_.get();
  }

 private:
  /// Longest number either put() emits: "-1.2345678901234567e-308" is 24.
  static constexpr std::ptrdiff_t kMaxNumberBytes = 32;

  void room(std::ptrdiff_t bytes) {
    if (end_ - pos_ < bytes) flush();
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  char* pos_;
  char* const end_;
};

/// Hands out a stream's lines, without their '\n', reading it in blocks.
/// The block grows only to fit a line longer than itself.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is), buf_(kBlockBytes) {}

  /// The next line, valid until the following call; false at end of input.
  bool next(std::string_view& line) {
    for (;;) {
      const char* base = buf_.data();
      if (const void* nl = std::memchr(base + begin_, '\n', end_ - begin_)) {
        const std::size_t at = static_cast<const char*>(nl) - base;
        line = std::string_view(base + begin_, at - begin_);
        begin_ = at + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = std::string_view(base + begin_, end_ - begin_);
        begin_ = end_;
        return true;
      }
      refill();
    }
  }

 private:
  /// Moves the unfinished line to the front of the block (growing the
  /// block if the line fills it) and reads more input behind it.
  void refill() {
    const std::size_t partial = end_ - begin_;
    if (partial == buf_.size()) {
      buf_.resize(2 * buf_.size());
    } else if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, partial);
    }
    begin_ = 0;
    end_ = partial;
    is_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(is_.gcount());
    eof_ = !is_;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

constexpr bool isSeparator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Pops the next field off `rest`, where fields are separated by runs of
/// ' ', '\t' and '\r'; empty once `rest` holds no more fields.
std::string_view nextField(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && isSeparator(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !isSeparator(rest[end])) ++end;
  const std::string_view field = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return field;
}

/// Parses the whole of `field` into `out` (unchanged on failure): plain
/// decimal for integers, std::from_chars' general grammar for doubles,
/// which must also be finite. No leading '+' or whitespace.
template <typename T>
bool parseNumber(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  T value{};
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(field.data(), end, value, std::chars_format::general);
    if (!std::isfinite(value)) return false;
  } else {
    r = std::from_chars(field.data(), end, value);
  }
  if (r.ec != std::errc{} || r.ptr != end) return false;
  out = value;
  return true;
}

/// "<external>.<internal>", both parts whole integers.
bool parseId(std::string_view field, coflow::CoflowId& id) {
  const auto dot = field.find('.');
  return dot != std::string_view::npos && parseNumber(field.substr(0, dot), id.external) &&
         parseNumber(field.substr(dot + 1), id.internal);
}

std::string quoted(std::string_view field) {
  std::string out(1, '\'');
  out.append(field).push_back('\'');
  return out;
}

}  // namespace

void writeTrace(std::ostream& os, const coflow::Workload& workload) {
  BlockWriter w(os);
  auto putIds = [&](std::string_view key, const std::vector<coflow::CoflowId>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i) w.put(i == 0 ? key : ",").put(ids[i]);
  };
  w.put("aalo-trace 1\nports ").put(workload.num_ports).put('\n');
  for (const coflow::JobSpec& job : workload.jobs) {
    w.put("job ").put(job.id).put(' ').put(job.arrival).put(' ').put(job.compute_time);
    w.put(' ').put(job.coflows.size()).put('\n');
    for (const coflow::CoflowSpec& c : job.coflows) {
      w.put("coflow ").put(c.id).put(' ').put(c.arrival_offset).put(' ').put(c.flows.size());
      putIds(" sa=", c.starts_after);
      putIds(" fb=", c.finishes_before);
      // Emitted only when set so deadline-free traces stay byte-identical
      // with the pre-deadline format (and readable by older parsers).
      if (c.deadline > 0) w.put(" dl=").put(c.deadline);
      w.put('\n');
      for (const coflow::FlowSpec& f : c.flows) {
        w.put("flow ").put(f.src).put(' ').put(f.dst).put(' ').put(f.bytes).put(' ');
        w.put(f.start_offset).put('\n');
      }
    }
  }
  w.flush();
}

void writeTraceFile(const std::string& path, const coflow::Workload& workload) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("writeTraceFile: cannot open " + path);
  writeTrace(out, workload);
}

coflow::Workload readTrace(std::istream& is) {
  coflow::Workload wl;
  std::size_t line_no = 0;
  bool header_seen = false;
  coflow::JobSpec* job = nullptr;
  coflow::CoflowSpec* cf = nullptr;
  // A declared record count sizes a reserve() only up to the records the
  // rest of the input could hold, so a few bytes cannot demand an
  // arbitrarily large allocation. Unseekable streams reserve nothing.
  std::streamoff input_bytes = -1;
  std::streamoff consumed = 0;
  if (const std::streampos start = is.tellg(); start != std::streampos(-1)) {
    if (is.seekg(0, std::ios::end)) input_bytes = is.tellg() - start;
    is.clear();
    is.seekg(start);
  }
  auto reserveBound = [&](std::size_t declared) -> std::size_t {
    constexpr std::streamoff kMinRecordBytes = 12;  // "flow 0 0 1 0"
    // The last line may lack its '\n', so `consumed` can overshoot by one.
    const std::streamoff left = input_bytes - consumed;
    if (left <= 0) return 0;
    return std::min(declared, static_cast<std::size_t>(left / kMinRecordBytes));
  };
  std::size_t coflows_expected = 0;
  std::size_t job_line = 0;
  std::size_t flows_expected = 0;

  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("trace line " + std::to_string(line_no) + ": " + why);
  };
  auto checkJobComplete = [&]() {
    if (job != nullptr && job->coflows.size() != coflows_expected) {
      throw std::runtime_error("trace line " + std::to_string(job_line) +
                               ": job has missing coflows");
    }
  };

  LineReader lines(is);
  std::string_view line;
  while (lines.next(line)) {
    ++line_no;
    consumed += static_cast<std::streamoff>(line.size()) + 1;
    std::string_view rest = line.substr(0, line.find('#'));
    const std::string_view kind = nextField(rest);
    if (kind.empty()) continue;  // Blank line.

    if (kind == "aalo-trace") {
      int version = 0;
      if (!parseNumber(nextField(rest), version) || version != 1) {
        fail("unsupported trace version");
      }
      header_seen = true;
    } else if (!header_seen) {
      fail("missing 'aalo-trace 1' header");
    } else if (kind == "ports") {
      if (!parseNumber(nextField(rest), wl.num_ports)) fail("bad ports line");
    } else if (kind == "job") {
      std::size_t num_coflows = 0;
      coflow::JobSpec j;
      if (!parseNumber(nextField(rest), j.id) || !parseNumber(nextField(rest), j.arrival) ||
          !parseNumber(nextField(rest), j.compute_time) ||
          !parseNumber(nextField(rest), num_coflows)) {
        fail("bad job line");
      }
      if (cf != nullptr && flows_expected != cf->flows.size()) {
        fail("previous coflow has missing flows");
      }
      checkJobComplete();
      wl.jobs.push_back(std::move(j));
      job = &wl.jobs.back();
      job_line = line_no;
      coflows_expected = num_coflows;
      job->coflows.reserve(reserveBound(num_coflows));
      cf = nullptr;
    } else if (kind == "coflow") {
      if (job == nullptr) fail("coflow before any job");
      if (cf != nullptr && flows_expected != cf->flows.size()) {
        fail("previous coflow has missing flows");
      }
      if (job->coflows.size() >= coflows_expected) fail("more coflows than declared");
      const std::string_view id = nextField(rest);
      coflow::CoflowSpec c;
      if (!parseNumber(nextField(rest), c.arrival_offset) ||
          !parseNumber(nextField(rest), flows_expected)) {
        fail("bad coflow line");
      }
      if (!parseId(id, c.id)) fail("bad coflow id " + quoted(id));
      for (std::string_view attr = nextField(rest); !attr.empty(); attr = nextField(rest)) {
        const std::string_view key = attr.substr(0, 3);
        std::string_view value = attr.substr(key.size());
        if (key == "sa=" || key == "fb=") {
          // A comma-separated id list; empty items are skipped.
          std::vector<coflow::CoflowId>& ids =
              key == "sa=" ? c.starts_after : c.finishes_before;
          ids.clear();
          while (!value.empty()) {
            const std::size_t comma = std::min(value.find(','), value.size());
            if (comma > 0 && !parseId(value.substr(0, comma), ids.emplace_back())) {
              fail("bad coflow id " + quoted(value.substr(0, comma)));
            }
            value.remove_prefix(std::min(comma + 1, value.size()));
          }
        } else if (key == "dl=") {
          if (!parseNumber(value, c.deadline)) fail("bad coflow deadline " + quoted(attr));
        } else {
          fail("unknown coflow attribute " + quoted(attr));
        }
      }
      c.flows.reserve(reserveBound(flows_expected));
      job->coflows.push_back(std::move(c));
      cf = &job->coflows.back();
    } else if (kind == "flow") {
      if (cf == nullptr) fail("flow before any coflow");
      if (cf->flows.size() >= flows_expected) fail("more flows than declared");
      coflow::FlowSpec f;
      if (!parseNumber(nextField(rest), f.src) || !parseNumber(nextField(rest), f.dst) ||
          !parseNumber(nextField(rest), f.bytes) || !parseNumber(nextField(rest), f.start_offset)) {
        fail("bad flow line");
      }
      cf->flows.push_back(f);
    } else {
      fail("unknown record " + quoted(kind));
    }
    if (const std::string_view extra = nextField(rest); !extra.empty()) {
      fail("unexpected field " + quoted(extra));
    }
  }
  if (cf != nullptr && flows_expected != cf->flows.size()) {
    throw std::runtime_error("trace: last coflow has missing flows");
  }
  checkJobComplete();
  wl.validate();
  return wl;
}

coflow::Workload readTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("readTraceFile: cannot open " + path);
  return readTrace(in);
}

coflow::Workload readCoflowBenchmarkTrace(std::istream& is) {
  // The format is a flat field sequence; line breaks carry no meaning
  // beyond locating errors.
  LineReader lines(is);
  std::string_view rest;
  std::size_t line_no = 0;
  auto next = [&]() -> std::string_view {
    for (;;) {
      if (const std::string_view field = nextField(rest); !field.empty()) return field;
      if (!lines.next(rest)) return {};
      ++line_no;
    }
  };
  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("coflow-benchmark trace line " + std::to_string(line_no) +
                             ": " + why);
  };

  coflow::Workload wl;
  std::size_t num_jobs = 0;
  if (!parseNumber(next(), wl.num_ports) || !parseNumber(next(), num_jobs)) {
    fail("bad header");
  }

  auto parsePort = [&](std::string_view field, const char* what) -> coflow::PortId {
    // Published traces use 1-based rack ids.
    std::int64_t rack = 0;
    if (!parseNumber(field, rack)) fail(std::string("bad ") + what + " " + quoted(field));
    if (rack < 1 || rack > wl.num_ports) fail(std::string(what) + " rack out of range");
    return static_cast<coflow::PortId>(rack - 1);
  };

  for (std::size_t j = 0; j < num_jobs; ++j) {
    coflow::JobId job_id = 0;
    double arrival_ms = 0;
    int num_mappers = 0;
    if (!parseNumber(next(), job_id) || !parseNumber(next(), arrival_ms) ||
        !parseNumber(next(), num_mappers) || num_mappers <= 0) {
      fail("bad job line");
    }
    std::vector<coflow::PortId> mappers;
    for (int m = 0; m < num_mappers; ++m) mappers.push_back(parsePort(next(), "mapper"));
    int num_reducers = 0;
    if (!parseNumber(next(), num_reducers) || num_reducers <= 0) {
      fail("bad reducer count");
    }

    coflow::JobSpec job;
    job.id = job_id;
    job.arrival = arrival_ms * util::kMillisecond;
    coflow::CoflowSpec spec;
    spec.id = {job_id, 0};
    for (int r = 0; r < num_reducers; ++r) {
      const std::string_view field = next();
      const auto colon = field.find(':');
      if (colon == std::string_view::npos) fail("reducer missing ':' in " + quoted(field));
      const auto reducer = parsePort(field.substr(0, colon), "reducer");
      double total_mb = 0;
      if (!parseNumber(field.substr(colon + 1), total_mb) || total_mb <= 0) {
        fail("non-positive or non-finite shuffle size in " + quoted(field));
      }
      // Every mapper contributes an equal share of this reducer's input.
      const util::Bytes per_mapper =
          total_mb * util::kMB / static_cast<double>(mappers.size());
      for (const auto mapper : mappers) {
        spec.flows.push_back(coflow::FlowSpec{mapper, reducer, per_mapper, 0});
      }
    }
    job.coflows.push_back(std::move(spec));
    wl.jobs.push_back(std::move(job));
  }
  wl.validate();
  return wl;
}

coflow::Workload readCoflowBenchmarkTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("readCoflowBenchmarkTraceFile: cannot open " + path);
  }
  return readCoflowBenchmarkTrace(in);
}

}  // namespace aalo::workload
