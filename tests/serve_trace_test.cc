// Boundary validation of the serve trace CSV loader: every malformed row is
// a typed ParseError, never a silent truncation, a wrapped cast, or a
// non-finite value that reaches the engine. Table-driven: one valid base
// trace, and per rule a copy with exactly one row replaced or appended.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "datagen/city.h"
#include "serve/replay.h"
#include "util/math_util.h"
#include "util/status.h"

namespace fta {
namespace {

/// Two centers; center 0 splits tick 0 over two requests (the first one
/// open), then both centers advance.
const std::vector<std::string> kBaseRows = {
    "meta,0.25,4",
    "center,0,0",
    "center,5,5",
    "req,0,0,0",
    "w,0.1,1,1,3,2.5",
    "req,0,0,1",
    "t,0.2,1,2,1,3,1.5",
    "req,1,0,1",
    "req,0,1,1",
    "req,1,2,1",
};

std::string Join(const std::vector<std::string>& rows) {
  std::string text;
  for (const std::string& row : rows) text += row + "\n";
  return text;
}

/// The base trace with row `index` replaced by `row` (index == size
/// appends).
std::string WithRow(size_t index, const std::string& row) {
  std::vector<std::string> rows = kBaseRows;
  if (index == rows.size()) {
    rows.push_back(row);
  } else {
    rows[index] = row;
  }
  return Join(rows);
}

TEST(ServeTraceTest, BaseTraceParses) {
  StatusOr<ServeTrace> trace = DeserializeServeTrace(Join(kBaseRows));
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_EQ(trace->ticks, 4u);
  ASSERT_EQ(trace->requests.size(), 5u);
  EXPECT_FALSE(trace->requests[0].final_in_tick);
  EXPECT_EQ(trace->requests[0].events[0].worker.max_delivery_points, 3u);
  EXPECT_EQ(trace->requests[3].tick, 1u);
}

TEST(ServeTraceTest, InfiniteLeaveTimesMeanNever) {
  // StreamEvent documents kInfinity as "never leaves"; the serializer
  // writes it as `inf`, so it must load back.
  const std::string text =
      WithRow(6, "t,0.2,1,2,1,inf,1.5") + "w,0.3,2,2,2,inf\n";
  StatusOr<ServeTrace> trace = DeserializeServeTrace(text);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_EQ(trace->requests[1].events[0].queue_expiry, kInfinity);
  EXPECT_EQ(trace->requests.back().events[0].departure, kInfinity);
}

struct BadRow {
  const char* rule;
  size_t index;  // row to replace; kBaseRows.size() appends
  const char* row;
  /// Fragment of the expected error message (names the rule that fired).
  const char* message;
};

TEST(ServeTraceTest, RejectsMalformedRows) {
  const size_t kAppend = kBaseRows.size();
  const std::vector<BadRow> cases = {
      // Integral fields: fractions, signs, exponents, overflow.
      {"non-integral center", 7, "req,0.7,0,1", "not a non-negative integer"},
      {"negative center", 7, "req,-1,0,1", "not a non-negative integer"},
      {"center beyond uint32", 7, "req,4294967296,0,1", "out of range"},
      {"undeclared center", 7, "req,2,0,1", "undeclared center"},
      {"non-integral tick", 7, "req,1,0.5,1", "not a non-negative integer"},
      {"negative tick", 7, "req,1,-3,1", "not a non-negative integer"},
      {"tick beyond uint64", 7, "req,1,18446744073709551616,1", "out of range"},
      {"non-integral ticks", 0, "meta,0.25,4.5", "not a non-negative integer"},
      {"negative ticks", 0, "meta,0.25,-4", "not a non-negative integer"},
      {"exponent ticks", 0, "meta,0.25,1e3", "not a non-negative integer"},
      {"ticks beyond uint64", 0, "meta,0.25,99999999999999999999",
       "out of range"},
      {"final flag not 0/1", 7, "req,1,0,2", "out of range"},
      {"non-integral maxdp", 4, "w,0.1,1,1,2.5,2.5",
       "not a non-negative integer"},
      {"negative maxdp", 4, "w,0.1,1,1,-3,2.5", "not a non-negative integer"},
      {"maxdp beyond uint32", 4, "w,0.1,1,1,4294967296,2.5", "out of range"},
      {"maxdp zero", 4, "w,0.1,1,1,0,2.5", "maxdp 0"},
      // Non-finite numbers.
      {"nan tick_period", 0, "meta,nan,4", "not finite"},
      {"inf tick_period", 0, "meta,inf,4", "not finite"},
      {"inf center coordinate", 1, "center,inf,0", "not finite"},
      {"nan worker x", 4, "w,0.1,nan,1,3,2.5", "not finite"},
      {"inf worker time", 4, "w,inf,1,1,3,2.5", "not finite"},
      {"nan departure", 4, "w,0.1,1,1,3,nan", "neither finite nor +inf"},
      {"-inf departure", 4, "w,0.1,1,1,3,-inf", "neither finite nor +inf"},
      {"nan task y", 6, "t,0.2,1,nan,1,3,1.5", "not finite"},
      {"inf reward", 6, "t,0.2,1,2,inf,3,1.5", "not finite"},
      {"nan queue_expiry", 6, "t,0.2,1,2,1,nan,1.5", "neither finite nor +inf"},
      {"inf service_window", 6, "t,0.2,1,2,1,3,inf", "not finite"},
      // Element rules shared with AssignmentServer::Submit.
      {"negative reward", 6, "t,0.2,1,2,-1,3,1.5", "reward is negative"},
      {"zero service_window", 6, "t,0.2,1,2,1,3,0",
       "service_window is not positive"},
      // Per-center batching protocol.
      {"ticks go backwards", kAppend, "req,1,1,1", "go backwards"},
      {"sealed tick repeats", kAppend, "req,0,1,1", "go backwards"},
      {"tick changes in open run", 5, "req,0,1,1", "inside its open"},
  };
  for (const BadRow& c : cases) {
    SCOPED_TRACE(c.rule);
    StatusOr<ServeTrace> trace =
        DeserializeServeTrace(WithRow(c.index, c.row));
    ASSERT_FALSE(trace.ok());
    EXPECT_EQ(trace.status().code(), StatusCode::kParseError);
    EXPECT_NE(trace.status().message().find(c.message), std::string::npos)
        << trace.status().message();
  }
}

// An event at exactly t * period is due at tick t — the stream
// dispatcher drains it there (time <= tick * period) — even where
// t * period / period rounds above t (first at 3 * 0.1); the next double
// up is due at t + 1.
TEST(ServeTraceTest, TickBoundaryEventsLandInTheirTick) {
  constexpr uint64_t kMaxTick = 2000;
  for (const double period : {0.1, 0.05, 0.02}) {
    SCOPED_TRACE(period);
    CityWorkload city;
    city.centers = {Point{0.0, 0.0}};
    city.tick_period = period;
    city.ticks = kMaxTick + 2;
    city.events.resize(1);
    // The reward carries the tick each event is due at.
    for (uint64_t t = 1; t <= kMaxTick; ++t) {
      StreamEvent at;
      at.time = static_cast<double>(t) * period;
      at.reward = static_cast<double>(t);
      StreamEvent after = at;
      after.time = std::nextafter(at.time, 1e9);
      after.reward = static_cast<double>(t + 1);
      city.events[0].push_back(at);
      city.events[0].push_back(after);
    }
    const ServeTrace trace = BuildServeTrace(city, 1, 1);
    size_t events = 0;
    for (const ServeRequest& req : trace.requests) {
      for (const StreamEvent& ev : req.events) {
        ASSERT_EQ(ev.reward, static_cast<double>(req.tick))
            << "event at " << ev.time;
        ++events;
      }
    }
    EXPECT_EQ(events, 2 * kMaxTick);
  }
}

}  // namespace
}  // namespace fta
