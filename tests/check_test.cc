// Contract-macro semantics with validation ENABLED. This target compiles
// with FTA_VALIDATE defined (see tests/CMakeLists.txt) regardless of the
// build-wide setting, so the death tests fire even in a default build.
// The disabled-mode counterpart lives in check_disabled_test.cc.

#include "util/check.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "util/status.h"

namespace fta {
namespace {

static_assert(kValidateEnabled,
              "check_test must be compiled with FTA_VALIDATE; see the "
              "target_compile_definitions in tests/CMakeLists.txt");

TEST(CheckValidateTest, DcheckPassesOnTrue) {
  FTA_DCHECK(1 + 1 == 2);
  FTA_DCHECK_MSG(true, "never printed");
}

TEST(CheckValidateDeathTest, DcheckAbortsOnFalse) {
  EXPECT_DEATH(FTA_DCHECK(2 + 2 == 5), "check failed: 2 \\+ 2 == 5");
}

TEST(CheckValidateDeathTest, DcheckMsgIncludesStreamedMessage) {
  const int frontier = 7;
  EXPECT_DEATH(FTA_DCHECK_MSG(frontier < 0, "frontier=" << frontier),
               "check failed: frontier < 0.*frontier=7");
}

TEST(CheckValidateTest, DcheckEvaluatesItsArgument) {
  int calls = 0;
  auto observed = [&calls] {
    ++calls;
    return true;
  };
  FTA_DCHECK(observed());
  EXPECT_EQ(calls, 1);
}

TEST(CheckValidateTest, DcheckOkPassesOnOkStatus) {
  FTA_DCHECK_OK(Status::Ok());
}

TEST(CheckValidateDeathTest, DcheckOkAbortsWithStatusMessage) {
  EXPECT_DEATH(FTA_DCHECK_OK(Status::Internal("frontier unsorted")),
               "is OK.*INTERNAL: frontier unsorted");
}

TEST(CheckAlwaysOnTest, CheckOkEvaluatesExactlyOnce) {
  int calls = 0;
  auto make_ok = [&calls] {
    ++calls;
    return Status::Ok();
  };
  FTA_CHECK_OK(make_ok());
  EXPECT_EQ(calls, 1);
}

TEST(CheckAlwaysOnDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(FTA_CHECK_OK(Status::InvalidArgument("bad dp index")),
               "is OK.*INVALID_ARGUMENT: bad dp index");
}

// A failing check must not discard what the program already printed: the
// child points stdout at stderr (which the death test captures), makes it
// fully buffered, prints, then fails a check.
TEST(CheckAlwaysOnDeathTest, FailingCheckKeepsBufferedStdout) {
  EXPECT_DEATH(
      {
        std::fflush(stdout);
        dup2(STDERR_FILENO, STDOUT_FILENO);
        std::setvbuf(stdout, nullptr, _IOFBF, 1 << 16);
        std::printf("table printed before the gate\n");
        FTA_CHECK(1 + 1 == 3);
      },
      "table printed before the gate(.|\n)*check failed: 1 \\+ 1 == 3");
}

}  // namespace
}  // namespace fta
