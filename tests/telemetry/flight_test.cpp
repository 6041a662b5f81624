// Flight recorder: a dump is a snapshot of the trace ring, disarmed until
// install(), and a fatal signal in an armed process leaves a parseable
// postmortem behind while the process still dies with the original signal.
// The unit cases give the recorder its own small ring; the death test uses
// the process-global one.
#include "telemetry/flight.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_parse.h"
#include "telemetry/telemetry.h"

namespace oaf::telemetry {
namespace {

namespace fs = std::filesystem;

std::string make_temp_dir(const char* tag) {
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("oaf_flight_test_") + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(FlightRecorderTest, DisarmedDumpWritesNothing) {
  TraceRecorder ring(16);
  FlightRecorder fr(ring);
  ring.instant(ring.track("flight"), "resilience", "deadline_fired", 7, 1000);
  EXPECT_FALSE(fr.armed());
  EXPECT_EQ(fr.dump_now("unit tests must not litter the filesystem"), "");
}

TEST(FlightRecorderTest, DumpWritesParseablePostmortem) {
  const std::string dir = make_temp_dir("dump");
  TraceRecorder ring(16);
  FlightRecorder fr(ring);
  ring.instant(ring.track("flight"), "resilience", "abort_sent", 42, 2000,
               "cid", 7);
  fr.install({dir, /*fatal_signals=*/false});
  ASSERT_TRUE(fr.armed());

  const std::string path = fr.dump_now("injected fault");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("oaf_flight_"), std::string::npos);
  EXPECT_EQ(path.find(dir), 0u);

  auto parsed = json_parse(slurp(path));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root["reason"].as_string(), "injected fault");
  EXPECT_EQ(root["pid"].as_i64(), static_cast<i64>(::getpid()));
  EXPECT_TRUE(root["metrics"].is_object());
  // The ring snapshot is embedded in Chrome trace form, Perfetto-loadable.
  bool saw_note = false;
  for (const auto& ev : root["trace"]["traceEvents"].items()) {
    saw_note |= ev["name"].as_string() == "abort_sent" &&
                ev["args"]["cid"].as_i64() == 7;
  }
  EXPECT_TRUE(saw_note);
}

TEST(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  TraceRecorder ring(4);
  FlightRecorder fr(ring);
  for (u64 i = 0; i < 10; ++i) {
    ring.instant(0, "t", "e", i, static_cast<TimeNs>(i));
  }
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  // The dump holds what the ring retained: its last four events.
  const std::string dir = make_temp_dir("drops");
  fr.install({dir, /*fatal_signals=*/false});
  auto parsed = json_parse(slurp(fr.dump_now("drops")));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  EXPECT_EQ(parsed.value()["dropped_events"].as_i64(), 6);
  EXPECT_EQ(parsed.value()["trace"]["traceEvents"].items().size(),
            1u + 4u);  // process_name metadata + four events
}

// End-to-end injected fault: the death-test child arms the GLOBAL recorder
// with fatal-signal hooks and aborts. The handler must dump the postmortem
// and re-raise, so the child still dies with SIGABRT (exit status intact for
// CI markers) while the parent finds the dump file.
TEST(FlightRecorderDeathTest, FatalSignalDumpsThenDies) {
  // The dump path allocates and is exercised from a real signal handler
  // here; run the death test in its own re-executed process so other tests'
  // threads cannot be mid-malloc at fork time.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The threadsafe child re-executes this test body with its own pid, so the
  // directory name must not embed the pid — both processes must agree on it.
  const std::string dir =
      (fs::path(::testing::TempDir()) / "oaf_flight_test_fatal").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EXIT(
      {
        tracer().instant(tracer().track("flight"), "resilience",
                         "about_to_crash", 1, 123);
        flight().install({dir, /*fatal_signals=*/true});
        std::raise(SIGABRT);
      },
      ::testing::KilledBySignal(SIGABRT), "");

  fs::path dump;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("oaf_flight_", 0) == 0) dump = entry.path();
  }
  ASSERT_FALSE(dump.empty()) << "no oaf_flight_*.json written in " << dir;

  auto parsed = json_parse(slurp(dump));
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const JsonValue& root = parsed.value();
  EXPECT_FALSE(root["reason"].as_string().empty());
  bool saw_note = false;
  for (const auto& ev : root["trace"]["traceEvents"].items()) {
    saw_note |= ev["name"].as_string() == "about_to_crash";
  }
  EXPECT_TRUE(saw_note);
}

}  // namespace
}  // namespace oaf::telemetry
