// Trace I/O round-trip fuzz: 500 seeded random workloads — multi-wave
// flows, DAG dependencies, extreme sizes, fractional times — serialized,
// parsed back, and serialized again. The two texts must be byte-identical
// (writeTrace emits full round-trip precision, so parse ∘ format is the
// identity on the second pass), and the parsed workload must survive
// validation. The writer's bytes are pinned against libc's `%.17g` and
// `%lld`. Zero/negative-byte flows stay rejected: serializing one and
// reading it back throws, consistent with Workload::validate(). Hostile
// inputs — huge declared record counts, NaN and infinite values, and
// seeded mutations of real traces — end in a clean exception, never an
// allocation sized by the input.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coflow/spec.h"
#include "fuzz_mutations.h"
#include "sched/dclas.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/trace_io.h"

namespace aalo {
namespace {

coflow::Workload randomWorkload(std::uint64_t seed) {
  util::Rng rng(seed);
  coflow::Workload wl;
  wl.num_ports = static_cast<int>(rng.uniformInt(2, 64));
  const int num_jobs = static_cast<int>(rng.uniformInt(1, 6));
  for (int j = 0; j < num_jobs; ++j) {
    coflow::JobSpec job;
    job.id = j + 1;
    job.arrival = rng.uniform(0.0, 1000.0);
    if (rng.uniformInt(0, 1) == 1) job.compute_time = rng.uniform(0.0, 30.0);
    const int num_coflows = static_cast<int>(rng.uniformInt(1, 4));
    for (int c = 0; c < num_coflows; ++c) {
      coflow::CoflowSpec spec;
      spec.id = coflow::CoflowId{job.id, c};
      spec.arrival_offset = rng.uniform(0.0, 5.0);
      // Deadlines on a third of coflows: fractional seconds that only
      // survive the round trip at full precision.
      if (rng.uniformInt(0, 2) == 0) spec.deadline = rng.uniform(0.01, 500.0);
      // DAG edges point at earlier coflows of the same job only, so the
      // workload always validates.
      for (int p = 0; p < c; ++p) {
        if (rng.uniformInt(0, 3) == 0) {
          spec.starts_after.push_back(coflow::CoflowId{job.id, p});
        } else if (rng.uniformInt(0, 3) == 0) {
          spec.finishes_before.push_back(coflow::CoflowId{job.id, p});
        }
      }
      const int waves = static_cast<int>(rng.uniformInt(1, 3));
      const int num_flows = static_cast<int>(rng.uniformInt(1, 8));
      for (int f = 0; f < num_flows; ++f) {
        coflow::FlowSpec flow;
        flow.src = static_cast<coflow::PortId>(
            rng.uniformInt(0, wl.num_ports - 1));
        flow.dst = static_cast<coflow::PortId>(
            rng.uniformInt(0, wl.num_ports - 1));
        // Log-uniform over 12 decades: single bytes up to terabytes.
        flow.bytes = std::pow(10.0, rng.uniform(0.0, 12.0));
        flow.start_offset =
            static_cast<double>(rng.uniformInt(0, waves - 1)) * 7.5;
        spec.flows.push_back(flow);
      }
      job.coflows.push_back(std::move(spec));
    }
    wl.jobs.push_back(std::move(job));
  }
  return wl;
}

TEST(TraceFuzz, WriteReadWriteIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const coflow::Workload wl = randomWorkload(seed);
    ASSERT_NO_THROW(wl.validate()) << "seed " << seed;

    std::ostringstream first;
    workload::writeTrace(first, wl);
    std::istringstream parse_in(first.str());
    coflow::Workload parsed;
    ASSERT_NO_THROW(parsed = workload::readTrace(parse_in)) << "seed " << seed;

    ASSERT_EQ(parsed.num_ports, wl.num_ports) << "seed " << seed;
    ASSERT_EQ(parsed.jobs.size(), wl.jobs.size()) << "seed " << seed;
    ASSERT_EQ(parsed.coflowCount(), wl.coflowCount()) << "seed " << seed;

    std::ostringstream second;
    workload::writeTrace(second, parsed);
    ASSERT_EQ(first.str(), second.str()) << "round-trip drift at seed " << seed;
  }
}

TEST(TraceFuzz, ExactValuesSurviveRoundTrip) {
  // Spot-check exact doubles (not just text): totals and DAG shape.
  const coflow::Workload wl = randomWorkload(42);
  std::ostringstream os;
  workload::writeTrace(os, wl);
  std::istringstream is(os.str());
  const coflow::Workload parsed = workload::readTrace(is);
  ASSERT_EQ(parsed.jobs.size(), wl.jobs.size());
  EXPECT_EQ(parsed.totalBytes(), wl.totalBytes());
  for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
    EXPECT_EQ(parsed.jobs[j].arrival, wl.jobs[j].arrival);
    EXPECT_EQ(parsed.jobs[j].compute_time, wl.jobs[j].compute_time);
    ASSERT_EQ(parsed.jobs[j].coflows.size(), wl.jobs[j].coflows.size());
    for (std::size_t c = 0; c < wl.jobs[j].coflows.size(); ++c) {
      const auto& a = wl.jobs[j].coflows[c];
      const auto& b = parsed.jobs[j].coflows[c];
      EXPECT_EQ(a.starts_after, b.starts_after);
      EXPECT_EQ(a.finishes_before, b.finishes_before);
      EXPECT_EQ(a.deadline, b.deadline);
      ASSERT_EQ(a.flows.size(), b.flows.size());
      for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].bytes, b.flows[f].bytes);
        EXPECT_EQ(a.flows[f].start_offset, b.flows[f].start_offset);
      }
    }
  }
}

TEST(TraceFuzz, DeadlineFreeTracesCarryNoDlAttribute) {
  // Backward compatibility in the other direction: a workload without
  // deadlines must serialize byte-identically to the pre-deadline format
  // (dl= is only emitted when set), so old traces and old readers agree.
  coflow::Workload wl = randomWorkload(5);
  for (auto& job : wl.jobs) {
    for (auto& c : job.coflows) c.deadline = 0;
  }
  std::ostringstream os;
  workload::writeTrace(os, wl);
  EXPECT_EQ(os.str().find("dl="), std::string::npos);
}

TEST(TraceFuzz, NegativeDeadlinesStayRejected) {
  coflow::Workload wl = randomWorkload(9);
  wl.jobs.front().coflows.front().deadline = -1.0;
  EXPECT_THROW(wl.validate(), std::invalid_argument);
  // The writer never emits a non-positive deadline, so craft the text by
  // hand: the reader must reject it rather than resurrect it silently.
  coflow::Workload clean = randomWorkload(9);
  std::ostringstream os;
  workload::writeTrace(os, clean);
  std::string text = os.str();
  const auto pos = text.find("coflow ");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.insert(eol, " dl=-1");
  std::istringstream is(text);
  EXPECT_ANY_THROW(workload::readTrace(is));
}

TEST(TraceFuzz, DeadlinesAreInertForDeadlineBlindSchedulers) {
  // A deadlined trace replayed under a pre-deadline scheduler must behave
  // exactly as if the dl= attributes were absent — the field only feeds
  // deadline-aware disciplines and the result counters.
  const coflow::Workload deadlined = randomWorkload(3);
  coflow::Workload stripped = deadlined;
  std::size_t with_deadline = 0;
  for (auto& job : stripped.jobs) {
    for (auto& c : job.coflows) {
      with_deadline += c.deadline > 0 ? 1 : 0;
      c.deadline = 0;
    }
  }
  ASSERT_GT(with_deadline, 0u) << "seed lost its deadlines";

  const fabric::FabricConfig fc{deadlined.num_ports, 1.0};
  sched::DClasScheduler a;
  sched::DClasScheduler b;
  const sim::SimResult with = sim::runSimulation(deadlined, fc, a);
  const sim::SimResult without = sim::runSimulation(stripped, fc, b);
  EXPECT_EQ(with.makespan, without.makespan);
  ASSERT_EQ(with.coflows.size(), without.coflows.size());
  for (std::size_t i = 0; i < with.coflows.size(); ++i) {
    EXPECT_EQ(with.coflows[i].finish, without.coflows[i].finish) << i;
    EXPECT_EQ(with.coflows[i].release, without.coflows[i].release) << i;
  }
  // Only the counters differ: the deadlined run reports misses.
  EXPECT_EQ(with.deadline_coflows, with_deadline);
  EXPECT_EQ(without.deadline_coflows, 0u);
  EXPECT_EQ(without.deadline_misses, 0u);
}

TEST(TraceFuzz, ZeroByteFlowsStayRejected) {
  // validate() rejects non-positive flows; the reader must agree rather
  // than resurrect them silently.
  coflow::Workload wl = randomWorkload(7);
  wl.jobs.front().coflows.front().flows.front().bytes = 0.0;
  EXPECT_THROW(wl.validate(), std::invalid_argument);
  std::ostringstream os;
  workload::writeTrace(os, wl);
  std::istringstream is(os.str());
  EXPECT_ANY_THROW(workload::readTrace(is));
}

TEST(TraceFuzz, HugeDeclaredCountsFailWithLineNumber) {
  // A few bytes declaring ~1e14 coflows (or flows) must be a parse error
  // pointing at the offending line, not a std::bad_alloc from reserving
  // what the input claims.
  const auto expectLineError = [](const std::string& text, const std::string& where) {
    std::istringstream is(text);
    try {
      workload::readTrace(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  };
  expectLineError("aalo-trace 1\nports 4\njob 1 0 0 99999999999999\n", "trace line 3");
  expectLineError("aalo-trace 1\nports 4\njob 1 0 0 99999999999999", "trace line 3");
  expectLineError("aalo-trace 1\nports 4\njob 1 0 0 1\ncoflow 1.0 0 99999999999999\n"
                  "flow 0 1 5 0\n",
                  "trace");
  // Extra records past a declared count are rejected where they appear.
  expectLineError("aalo-trace 1\nports 4\njob 1 0 0 1\ncoflow 1.0 0 1\nflow 0 1 5 0\n"
                  "coflow 1.1 0 1\nflow 0 1 5 0\n",
                  "trace line 6");
}

TEST(TraceFuzz, NonFiniteValuesAreRejected) {
  // std::stod (deadlines, coflow-benchmark sizes) accepts "nan" and "inf".
  {
    std::istringstream is("2 1\n1 0 1 1 1 2:nan\n");
    EXPECT_ANY_THROW(workload::readCoflowBenchmarkTrace(is));
  }
  {
    std::istringstream is("2 1\n1 0 1 1 1 2:inf\n");
    EXPECT_ANY_THROW(workload::readCoflowBenchmarkTrace(is));
  }
  for (const char* dl : {"nan", "inf"}) {
    std::istringstream is(std::string("aalo-trace 1\nports 2\njob 0 0 0 1\n"
                                      "coflow 0.0 0 1 dl=") +
                          dl + "\nflow 0 1 5 0\n");
    EXPECT_ANY_THROW(workload::readTrace(is)) << dl;
  }
  // Workloads built in code go through the same validation.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const double bad : {nan, inf}) {
    coflow::Workload wl = randomWorkload(11);
    wl.jobs.front().coflows.front().flows.front().bytes = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
    wl = randomWorkload(11);
    wl.jobs.front().coflows.front().flows.front().start_offset = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
    wl = randomWorkload(11);
    wl.jobs.front().coflows.front().arrival_offset = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
    wl = randomWorkload(11);
    wl.jobs.front().coflows.front().deadline = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
    wl = randomWorkload(11);
    wl.jobs.front().arrival = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
    wl = randomWorkload(11);
    wl.jobs.front().compute_time = bad;
    EXPECT_THROW(wl.validate(), std::invalid_argument) << bad;
  }
}


std::string toText(const coflow::Workload& wl) {
  std::ostringstream os;
  workload::writeTrace(os, wl);
  return os.str();
}

coflow::Workload fromText(const std::string& text) {
  std::istringstream is(text);
  return workload::readTrace(is);
}

/// The trace writer restated with libc's printf family: `%lld` for every
/// integer and `%.17g` for every double.
std::string libcTrace(const coflow::Workload& wl) {
  std::string out;
  char buf[64];
  const auto integer = [&](long long v) {
    std::snprintf(buf, sizeof buf, "%lld", v);
    out += buf;
  };
  const auto real = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  };
  const auto ids = [&](const char* key, const std::vector<coflow::CoflowId>& list) {
    if (list.empty()) return;
    out += key;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i) out += ',';
      integer(list[i].external);
      out += '.';
      integer(list[i].internal);
    }
  };
  out += "aalo-trace 1\nports ";
  integer(wl.num_ports);
  out += '\n';
  for (const coflow::JobSpec& job : wl.jobs) {
    out += "job ";
    integer(job.id);
    out += ' ';
    real(job.arrival);
    out += ' ';
    real(job.compute_time);
    out += ' ';
    integer(static_cast<long long>(job.coflows.size()));
    out += '\n';
    for (const coflow::CoflowSpec& c : job.coflows) {
      out += "coflow ";
      integer(c.id.external);
      out += '.';
      integer(c.id.internal);
      out += ' ';
      real(c.arrival_offset);
      out += ' ';
      integer(static_cast<long long>(c.flows.size()));
      ids(" sa=", c.starts_after);
      ids(" fb=", c.finishes_before);
      if (c.deadline > 0) {
        out += " dl=";
        real(c.deadline);
      }
      out += '\n';
      for (const coflow::FlowSpec& f : c.flows) {
        out += "flow ";
        integer(f.src);
        out += ' ';
        integer(f.dst);
        out += ' ';
        real(f.bytes);
        out += ' ';
        real(f.start_offset);
        out += '\n';
      }
    }
  }
  return out;
}

/// One job per edge double, carrying it in every field that allows it,
/// under extreme job, coflow and port ids.
coflow::Workload edgeWorkload() {
  using I64 = std::numeric_limits<std::int64_t>;
  using I32 = std::numeric_limits<std::int32_t>;
  // 2^53+1 is not a double (it rounds to 2^53); the job id carries it exactly.
  const double doubles[] = {0.0, -0.0, 5e-324, DBL_MIN, DBL_MAX, 0x1p53 + 1, 0.1, 1e-300};
  const std::int64_t job_ids[] = {0, (1LL << 53) + 1, I64::max(), I64::min(), -1, 1, 2, 3};
  const std::int32_t internal_ids[] = {0, I32::max(), I32::min(), -1, 1, 2, 3, 4};
  coflow::Workload wl;
  wl.num_ports = I32::max();
  for (std::size_t i = 0; i < std::size(doubles); ++i) {
    const double v = doubles[i];
    coflow::JobSpec job;
    job.id = job_ids[i];
    job.arrival = v;
    job.compute_time = v;
    coflow::CoflowSpec parent;
    parent.id = {job.id, internal_ids[i]};
    parent.arrival_offset = v;
    parent.deadline = v;
    // Sizes must be positive: the zeros carry the smallest subnormal.
    parent.flows.push_back({0, wl.num_ports - 1, v > 0 ? v : 5e-324, v});
    coflow::CoflowSpec child = parent;
    child.id.internal = internal_ids[(i + 1) % std::size(internal_ids)];
    child.starts_after = {parent.id};
    child.finishes_before = {parent.id, parent.id};
    job.coflows = {parent, child};
    wl.jobs.push_back(std::move(job));
  }
  return wl;
}

TEST(TraceFuzz, WriterMatchesLibcFormatting) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const coflow::Workload wl = randomWorkload(seed);
    ASSERT_EQ(toText(wl), libcTrace(wl)) << "seed " << seed;
  }
  const coflow::Workload edges = edgeWorkload();
  ASSERT_NO_THROW(edges.validate());
  EXPECT_EQ(toText(edges), libcTrace(edges));
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(TraceFuzz, ExactEdgeValuesSurviveRoundTrip) {
  // ExactValuesSurviveRoundTrip at the corners: signed zero, subnormals,
  // DBL_MIN/DBL_MAX, 2^53+1, and the extreme integer ids, bit for bit.
  const coflow::Workload wl = edgeWorkload();
  const coflow::Workload parsed = fromText(toText(wl));
  EXPECT_EQ(parsed.num_ports, wl.num_ports);
  ASSERT_EQ(parsed.jobs.size(), wl.jobs.size());
  for (std::size_t j = 0; j < wl.jobs.size(); ++j) {
    const auto& a = wl.jobs[j];
    const auto& b = parsed.jobs[j];
    EXPECT_EQ(a.id, b.id);
    EXPECT_TRUE(sameBits(a.arrival, b.arrival)) << j;
    EXPECT_TRUE(sameBits(a.compute_time, b.compute_time)) << j;
    ASSERT_EQ(a.coflows.size(), b.coflows.size());
    for (std::size_t c = 0; c < a.coflows.size(); ++c) {
      const auto& x = a.coflows[c];
      const auto& y = b.coflows[c];
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.starts_after, y.starts_after);
      EXPECT_EQ(x.finishes_before, y.finishes_before);
      EXPECT_TRUE(sameBits(x.arrival_offset, y.arrival_offset)) << j;
      // Non-positive deadlines are not written; they read back as +0.
      EXPECT_TRUE(sameBits(x.deadline > 0 ? x.deadline : 0.0, y.deadline)) << j;
      ASSERT_EQ(x.flows.size(), y.flows.size());
      EXPECT_EQ(x.flows[0].src, y.flows[0].src);
      EXPECT_EQ(x.flows[0].dst, y.flows[0].dst);
      EXPECT_TRUE(sameBits(x.flows[0].bytes, y.flows[0].bytes)) << j;
      EXPECT_TRUE(sameBits(x.flows[0].start_offset, y.flows[0].start_offset)) << j;
    }
  }
}

const char* const kCommittedTraces[] = {"golden_200.trace", "golden_deadline_50.trace"};

std::string committedTrace(const char* name) {
  std::ifstream in(std::string(AALO_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TraceFuzz, CommittedTracesReserializeByteIdentically) {
  for (const char* name : kCommittedTraces) {
    const std::string text = committedTrace(name);
    ASSERT_FALSE(text.empty()) << name;
    EXPECT_EQ(toText(fromText(text)), text) << name;
  }
}

// --- Seeded mutational fuzzing (mutation set in fuzz_mutations.h) --------

/// The fuzz property: `parse(text)` throws std::runtime_error or
/// std::invalid_argument, or returns a workload that validates and whose
/// write -> read -> write is byte-identical. Anything else is a failure
/// tagged with `where` (input, seed and mutation index, for replay).
template <typename Parse>
void expectCleanOutcome(Parse parse, const std::string& text, const std::string& where) {
  coflow::Workload wl;
  try {
    wl = parse(text);
  } catch (const std::runtime_error&) {
    return;
  } catch (const std::invalid_argument&) {
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": unexpected exception: " << e.what();
    return;
  }
  try {
    wl.validate();
    const std::string first = toText(wl);
    EXPECT_EQ(toText(fromText(first)), first) << where;
  } catch (const std::exception& e) {
    ADD_FAILURE() << where << ": accepted input fails to round-trip: " << e.what();
  }
}

/// Runs every mutation kind `seeds` times over `text`.
template <typename Parse>
void fuzzMutations(Parse parse, const std::string& name, const std::string& text,
                   std::uint64_t seeds) {
  for (int m = 0; m < fuzz::kMutationCount; ++m) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const std::string mutated = fuzz::mutate(text, static_cast<fuzz::Mutation>(m), seed);
      expectCleanOutcome(parse, mutated,
                         name + " seed " + std::to_string(seed) + " mutation " +
                             std::to_string(m));
    }
  }
}

TEST(TraceFuzz, MutatedTracesFailCleanlyOrRoundTrip) {
  for (const char* name : kCommittedTraces) {
    const std::string text = committedTrace(name);
    ASSERT_FALSE(text.empty()) << name;
    // Fewer seeds for golden_200, 4x the size, to keep asan runs short.
    fuzzMutations(fromText, name, text, text.size() > 200'000 ? 3 : 10);
  }
  for (std::uint64_t w = 1; w <= 4; ++w) {
    fuzzMutations(fromText, "randomWorkload(" + std::to_string(w) + ")",
                  toText(randomWorkload(w)), 100);
  }
}

TEST(TraceFuzz, MutatedCoflowBenchmarkTracesFailCleanlyOrRoundTrip) {
  const std::string text =
      "4 3\n"
      "1 0 2 1 2 2 3:100 4:50\n"
      "2 500 1 4 1 1:10\n"
      "3 900.5 3 1 2 3 2 2:0.5 4:1e-3\n";
  const auto parse = [](const std::string& t) {
    std::istringstream is(t);
    return workload::readCoflowBenchmarkTrace(is);
  };
  fuzzMutations(parse, "coflow-benchmark", text, 300);
}

}  // namespace
}  // namespace aalo
