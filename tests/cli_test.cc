// Command-line contract of the tools: strict number parsing and clean
// exit codes. A usage error exits 2 and a trace that cannot be read or a
// configuration the library rejects exits 1; neither may abort on an
// uncaught exception, and a NaN must never reach a scheduler.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>

#include "sched/registry.h"

#ifndef AALO_SIM_BIN
#error "AALO_SIM_BIN must point at the aalo_sim binary"
#endif
#ifndef AALO_DAEMON_BIN
#error "AALO_DAEMON_BIN must point at the aalo_daemon binary"
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

TEST(AaloCoordinatorCli, SnapshotEveryIsAnUnknownFlag) {
  // Snapshots go out on connect, on request and after backpressure only;
  // the periodic re-send and its flag are gone.
  const Outcome out = run(std::string("timeout 30 ") + AALO_COORDINATOR_BIN +
                          " --port 0 --snapshot-every 5");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("unknown flag --snapshot-every"), std::string::npos)
      << out.output;
  EXPECT_EQ(out.output.find("snapshot-every N"), std::string::npos)
      << out.output;
}

TEST(AaloCoordinatorCli, FullBroadcastsIsAnUnknownFlag) {
  // The delta path is the only data path; the full-broadcast oracle mode
  // and its flag are gone.
  const Outcome out = run(std::string("timeout 30 ") + AALO_COORDINATOR_BIN +
                          " --port 0 --full-broadcasts");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_GE(out.code, 1) << out.output;
  EXPECT_LE(out.code, 127) << out.output;
  EXPECT_NE(out.output.find("unknown flag --full-broadcasts"), std::string::npos)
      << out.output;
}

TEST(AaloDaemonCli, FullReportsIsAnUnknownFlag) {
  // Reports carry changed coflows plus periodic resyncs only; the
  // full-report oracle mode and its flag are gone. Port 1 has no
  // coordinator, so a daemon that took the flag fails on the dial: only
  // the message tells the two failures apart.
  const Outcome out = run(std::string("timeout 30 ") + AALO_DAEMON_BIN +
                          " --coordinator-port 1 --full-reports");
  EXPECT_TRUE(out.exited) << out.output;
  EXPECT_GE(out.code, 1) << out.output;
  EXPECT_LE(out.code, 127) << out.output;
  EXPECT_NE(out.output.find("unknown flag --full-reports"), std::string::npos)
      << out.output;
}

// Numbers are parsed whole and range-checked: each of these used to be
// read by atoi/atof (port 70000 wrapped to 4464, "1x" read as 1) and the
// tool started. timeout guards against one that starts anyway.
void expectUsageErrorNaming(const std::string& binary, const std::string& args,
                            const std::string& flag) {
  const Outcome out = run("timeout 30 " + binary + " " + args);
  EXPECT_TRUE(out.exited) << args << ": " << out.output;
  EXPECT_EQ(out.code, 2) << args << ": " << out.output;
  EXPECT_NE(out.output.find("for " + flag), std::string::npos)
      << args << ": " << out.output;
}

TEST(AaloCoordinatorCli, OutOfRangePortIsAUsageError) {
  expectUsageErrorNaming(AALO_COORDINATOR_BIN, "--port 70000", "--port");
  expectUsageErrorNaming(AALO_COORDINATOR_BIN, "--port -1", "--port");
}

TEST(AaloCoordinatorCli, OutOfRangeStandbyOfIsAUsageError) {
  expectUsageErrorNaming(AALO_COORDINATOR_BIN, "--port 0 --standby-of 70000",
                         "--standby-of");
}

TEST(AaloCoordinatorCli, TrailingGarbageInDeltaIsAUsageError) {
  expectUsageErrorNaming(AALO_COORDINATOR_BIN, "--port 0 --delta 1x", "--delta");
  expectUsageErrorNaming(AALO_COORDINATOR_BIN, "--port 0 --delta 0", "--delta");
}

TEST(Fig14Cli, MalformedNumbersAreUsageErrors) {
  // After a small valid run (one 100-daemon sweep point of 2 rounds), so a
  // value still read leniently shows as a run that exits 0.
  const std::string valid = "--json /dev/null --sweep-only --daemons 100 --rounds 2 ";
  for (const auto& [args, flag] :
       {std::pair{"--rounds abc", "--rounds"}, {"--rounds 0", "--rounds"},
        {"--live-coflows x", "--live-coflows"}, {"--live-coflows -1", "--live-coflows"},
        {"--daemons 100,x", "--daemons"}, {"--daemons -5", "--daemons"}}) {
    expectUsageErrorNaming(AALO_FIG14_BIN, valid + args, flag);
  }
}

TEST(AaloDaemonCli, OutOfRangeCoordinatorPortIsAUsageError) {
  expectUsageErrorNaming(AALO_DAEMON_BIN, "--coordinator-port 70000",
                         "--coordinator-port");
}

TEST(AaloDaemonCli, TrailingGarbageInDeltaIsAUsageError) {
  expectUsageErrorNaming(AALO_DAEMON_BIN, "--coordinator-port 1 --delta 5ms",
                         "--delta");
}

TEST(AaloDaemonCli, ChaosFlagsAreUnknownFlags) {
  // The daemon links no fault injector (ChaosProxy is test support). Each
  // flag gets a valid value, so only the flag itself can be rejected.
  for (const char* flag : {"--chaos-seed 1", "--chaos-drop 0.1", "--chaos-dup 0.1",
                           "--chaos-reorder 0.1", "--chaos-corrupt 0.1",
                           "--chaos-truncate 0.1", "--chaos-delay 0.1",
                           "--chaos-split 16"}) {
    const std::string arg = flag;
    const std::string name = arg.substr(0, arg.find(' '));
    const Outcome out = run(std::string("timeout 30 ") + AALO_DAEMON_BIN +
                            " --coordinator-port 1 " + arg);
    EXPECT_TRUE(out.exited) << flag << ": " << out.output;
    EXPECT_GE(out.code, 1) << flag << ": " << out.output;
    EXPECT_LE(out.code, 127) << flag << ": " << out.output;
    EXPECT_NE(out.output.find("unknown flag " + name), std::string::npos)
        << flag << ": " << out.output;
  }
}

}  // namespace
}  // namespace aalo
