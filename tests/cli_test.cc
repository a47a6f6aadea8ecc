// Command-line contract of the tools: strict number parsing and clean
// exit codes. A usage error exits 2 and a trace that cannot be read or a
// configuration the library rejects exits 1; neither may abort on an
// uncaught exception, and a NaN must never reach a scheduler.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include "sched/registry.h"

#ifndef AALO_SIM_BIN
#error "AALO_SIM_BIN must point at the aalo_sim binary"
#endif

namespace aalo {
namespace {

struct Outcome {
  bool exited = false;  ///< False when the process died on a signal.
  int code = -1;
  std::string output;  ///< stdout and stderr, interleaved.
};

Outcome run(const std::string& command) {
  Outcome out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.output.append(buf, n);
  const int status = pclose(pipe);
  out.exited = WIFEXITED(status);
  out.code = out.exited ? WEXITSTATUS(status) : -1;
  return out;
}

const std::string kSim = AALO_SIM_BIN;
const std::string kTrace = std::string(AALO_TEST_DATA_DIR) + "/golden_deadline_50.trace";

Outcome sim(const std::string& args) {
  return run(kSim + " --trace " + kTrace + " --sched aalo " + args);
}

TEST(AaloSimCli, NonFiniteDeltaIsAUsageError) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    const Outcome out = sim(std::string("--delta ") + bad);
    EXPECT_TRUE(out.exited) << bad << ": " << out.output;
    EXPECT_EQ(out.code, 2) << bad << ": " << out.output;
  }
}

TEST(AaloSimCli, NegativeDeltaIsAUsageError) {
  const Outcome out = sim("--delta -1");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
}

TEST(AaloSimCli, MalformedNumbersAreUsageErrors) {
  for (const char* args : {"--delta abc", "--delta 0.5s", "--delta ''", "--jobs x",
                           "--jobs -1", "--ports-per-rack 2.5",
                           "--oversubscription 0", "--deadline-slack nan"}) {
    const Outcome out = sim(args);
    EXPECT_TRUE(out.exited) << args << ": " << out.output;
    EXPECT_EQ(out.code, 2) << args << ": " << out.output;
  }
}

TEST(AaloSimCli, MissingTraceExitsOneWithoutAborting) {
  const Outcome out = run(kSim + " --trace /nonexistent/trace --sched aalo");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 1) << out.output;
  EXPECT_NE(out.output.find("cannot open"), std::string::npos) << out.output;
}

TEST(AaloSimCli, ValidDeltaRuns) {
  const Outcome out = sim("--delta 0.5 --jobs 1");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 0) << out.output;
  EXPECT_NE(out.output.find("aalo-dclas-d500 ms"), std::string::npos) << out.output;
}

// The usage text is generated from the catalogue; scripts/ci.sh reads the
// scheduler list from it.
TEST(AaloSimCli, UsageListsEveryRegisteredScheduler) {
  std::string names;
  for (const sched::RegisteredScheduler& entry : sched::registeredSchedulers()) {
    if (!names.empty()) names += ',';
    names += entry.name;
  }
  const Outcome out = run(kSim);
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("\nschedulers: " + names + "\n"), std::string::npos)
      << out.output;
  const Outcome unknown = run(kSim + " --trace " + kTrace + " --sched no-such");
  EXPECT_EQ(unknown.code, 2) << unknown.output;
}

TEST(AaloCoordinatorCli, RejectedDClasConfigExitsOne) {
  // timeout guards against a coordinator that accepted the value and is
  // now serving forever.
  const Outcome out = run(std::string("timeout 30 ") + AALO_COORDINATOR_BIN +
                          " --port 0 --factor nan");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 1) << out.output;
  EXPECT_NE(out.output.find("exp_factor"), std::string::npos) << out.output;
}

}  // namespace
}  // namespace aalo
