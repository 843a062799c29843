#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "bench.h"

namespace zeus::perfbench {
namespace {

Args TestArgs() {
  Args args;
  args.workload = "report-test";
  args.work_dir = "unused";
  return args;  // no out_dir: Finish writes no result file
}

// Finish's exit code and the "correct" field of its result line.
std::pair<int, std::string> Finish(Report* report) {
  testing::internal::CaptureStdout();
  const int code = report->Finish();
  return {code, testing::internal::GetCapturedStdout()};
}

TEST(ReportTest, CleanRunExitsZero) {
  Report report(TestArgs());
  report.accounting().Attempt("op", 3);
  const auto [code, out] = Finish(&report);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("\"correct\": true, \"attempted\": 3, \"failed\": 0"),
            std::string::npos)
      << out;
}

TEST(ReportTest, FailedOperationExitsNonZero) {
  Report report(TestArgs());
  report.accounting().Attempt("op", 3);
  report.accounting().Fail("op", "no update covering the epoch");
  const auto [code, out] = Finish(&report);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("\"correct\": false, \"attempted\": 3, \"failed\": 1"),
            std::string::npos)
      << out;
}

TEST(ReportTest, RefusedOperationExitsNonZero) {
  Report report(TestArgs());
  report.accounting().Attempt("op");
  report.accounting().Refuse("op", "refused: queue full");
  EXPECT_NE(Finish(&report).first, 0);
}

TEST(ReportTest, FailedCheckExitsNonZero) {
  Report report(TestArgs());
  report.accounting().Attempt("op");
  report.Check(false, "answer differs");
  const auto [code, out] = Finish(&report);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("\"correct\": false"), std::string::npos) << out;
}

TEST(ReportTest, NothingAttemptedExitsNonZero) {
  Report report(TestArgs());
  EXPECT_NE(Finish(&report).first, 0);
}

}  // namespace
}  // namespace zeus::perfbench
