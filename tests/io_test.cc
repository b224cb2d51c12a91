#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "datagen/gmission.h"
#include "datagen/synthetic.h"
#include "io/assignment_io.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/svg.h"
#include "io/trace_io.h"
#include "model/route.h"
#include "util/string_util.h"

namespace fta {
namespace {

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, BasicRows) {
  const auto doc = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, QuotedFieldsWithDelimiters) {
  const auto doc = ParseCsv("\"a,b\",c\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"a,b", "c"}));
}

TEST(CsvTest, DoubledQuoteEscape) {
  const auto doc = ParseCsv("\"say \"\"hi\"\"\",x\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "say \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  const auto doc = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, SkipsEmptyLinesAndComments) {
  const auto doc = ParseCsv("# header comment\n\na,b\n\n# tail\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, MissingFinalNewline) {
  const auto doc = ParseCsv("a,b");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(ParseCsv("\"abc\n").ok());
}

TEST(CsvTest, RoundTripWithQuoting) {
  const std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote", "multi\nline"},
      {"", "x", "#hash", "y"}};
  const auto doc = ParseCsv(ToCsv(rows));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows, rows);
}

TEST(CsvTest, CustomDelimiter) {
  const auto doc = ParseCsv("a;b;c\n", ';');
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0].size(), 3u);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fta_csv_test.csv";
  const std::vector<std::vector<std::string>> rows{{"x", "1"}, {"y", "2"}};
  ASSERT_TRUE(WriteTextFile(path, ToCsv(rows)).ok());
  const StatusOr<std::string> text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  const auto doc = ParseCsv(*text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  const StatusOr<MultiCenterInstance> loaded =
      LoadInstances("/nonexistent/dir/f.csv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(loaded.status().message(),
            "cannot open for reading: /nonexistent/dir/f.csv");
}

// ------------------------------------------------------------ DatasetIo --

MultiCenterInstance SmallMulti() {
  SynConfig config;
  config.num_centers = 3;
  config.num_workers = 12;
  config.num_delivery_points = 18;
  config.num_tasks = 100;
  config.seed = 21;
  return GenerateSyn(config);
}

TEST(DatasetIoTest, SerializeDeserializeRoundTrip) {
  const MultiCenterInstance multi = SmallMulti();
  const auto back = DeserializeInstances(SerializeInstances(multi));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->centers.size(), multi.centers.size());
  for (size_t c = 0; c < multi.centers.size(); ++c) {
    const Instance& a = multi.centers[c];
    const Instance& b = back->centers[c];
    EXPECT_EQ(a.center(), b.center());
    EXPECT_EQ(a.num_delivery_points(), b.num_delivery_points());
    EXPECT_EQ(a.num_workers(), b.num_workers());
    EXPECT_EQ(a.num_tasks(), b.num_tasks());
    EXPECT_DOUBLE_EQ(a.travel().speed(), b.travel().speed());
    for (size_t d = 0; d < a.num_delivery_points(); ++d) {
      EXPECT_EQ(a.delivery_point(d).location(),
                b.delivery_point(d).location());
      EXPECT_EQ(a.delivery_point(d).tasks(), b.delivery_point(d).tasks());
    }
    EXPECT_EQ(a.workers(), b.workers());
  }
}

TEST(DatasetIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fta_dataset_test.csv";
  const MultiCenterInstance multi = SmallMulti();
  ASSERT_TRUE(SaveInstances(path, multi).ok());
  const auto back = LoadInstances(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->centers.size(), multi.centers.size());
  EXPECT_EQ(back->num_tasks(), multi.num_tasks());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, RejectsRowsBeforeCenter) {
  EXPECT_FALSE(DeserializeInstances("D,1,2\n").ok());
  EXPECT_FALSE(DeserializeInstances("W,1,2,3\n").ok());
  EXPECT_FALSE(DeserializeInstances("T,0,1,1\n").ok());
}

TEST(DatasetIoTest, RejectsUnknownTag) {
  EXPECT_FALSE(DeserializeInstances("C,0,0,5\nZ,1,2\n").ok());
}

TEST(DatasetIoTest, RejectsTaskToUnknownDeliveryPoint) {
  EXPECT_FALSE(DeserializeInstances("C,0,0,5\nD,1,1\nT,5,1,1\n").ok());
}

TEST(DatasetIoTest, RejectsMalformedNumbers) {
  EXPECT_FALSE(DeserializeInstances("C,zero,0,5\n").ok());
  EXPECT_FALSE(DeserializeInstances("C,0,0,5\nD,1\n").ok());
  EXPECT_FALSE(DeserializeInstances("C,0,0,-5\n").ok());
  EXPECT_FALSE(DeserializeInstances("C,0,0,5\nW,1,1,0\n").ok());
}

TEST(DatasetIoTest, RejectsInvalidTaskExpiry) {
  // Validation runs on each parsed center: non-positive expiry is invalid.
  EXPECT_FALSE(
      DeserializeInstances("C,0,0,5\nD,1,1\nT,0,-2,1\n").ok());
}

TEST(DatasetIoTest, EmptyTextGivesEmptyMulti) {
  const auto multi = DeserializeInstances("");
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(multi->centers.empty());
}

TEST(DatasetIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadInstances("/no/such/file.csv").ok());
}

// --------------------------------------------------------------- TraceIo --

RawCrowdData SmallRaw() {
  GMissionConfig config;
  config.num_tasks = 50;
  config.num_workers = 8;
  config.seed = 33;
  return GenerateGMissionRaw(config);
}

TEST(TraceIoTest, RoundTrip) {
  const RawCrowdData raw = SmallRaw();
  const auto back = DeserializeRawTrace(SerializeRawTrace(raw));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->task_locations, raw.task_locations);
  EXPECT_EQ(back->task_expiries, raw.task_expiries);
  EXPECT_EQ(back->task_rewards, raw.task_rewards);
  EXPECT_EQ(back->worker_locations, raw.worker_locations);
}

TEST(TraceIoTest, FileRoundTripFeedsPrepPipeline) {
  const std::string path = ::testing::TempDir() + "/fta_trace.csv";
  const RawCrowdData raw = SmallRaw();
  ASSERT_TRUE(SaveRawTrace(path, raw).ok());
  const auto back = LoadRawTrace(path);
  ASSERT_TRUE(back.ok());
  // The reloaded trace must run through the paper's preparation.
  GMissionPrepConfig prep;
  prep.num_delivery_points = 10;
  const Instance inst = PrepareGMissionInstance(*back, prep);
  EXPECT_TRUE(inst.Validate().ok());
  EXPECT_EQ(inst.num_tasks(), raw.task_locations.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMalformedRows) {
  EXPECT_FALSE(DeserializeRawTrace("task,1,2,3\n").ok());      // missing reward
  EXPECT_FALSE(DeserializeRawTrace("task,1,2,0,1\n").ok());    // expiry <= 0
  EXPECT_FALSE(DeserializeRawTrace("task,1,2,3,-1\n").ok());   // reward < 0
  EXPECT_FALSE(DeserializeRawTrace("worker,1\n").ok());        // missing y
  EXPECT_FALSE(DeserializeRawTrace("courier,1,2\n").ok());     // unknown tag
}

TEST(TraceIoTest, EmptyTraceIsEmptyData) {
  const auto raw = DeserializeRawTrace("# nothing here\n");
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->task_locations.empty());
  EXPECT_TRUE(raw->worker_locations.empty());
}

// ---------------------------------------------------------- AssignmentIo --

TEST(AssignmentIoTest, RoundTrip) {
  const MultiCenterInstance multi = SmallMulti();
  const Instance& inst = multi.centers[0];
  // Build a simple valid assignment by hand: distinct singletons.
  Assignment a(inst.num_workers());
  size_t dp = 0;
  for (size_t w = 0; w < inst.num_workers() &&
                     dp < inst.num_delivery_points();
       ++w, ++dp) {
    const Route route{static_cast<uint32_t>(dp)};
    if (EvaluateRoute(inst, w, route).feasible) a.SetRoute(w, route);
  }
  const auto back = DeserializeAssignment(SerializeAssignment(a), inst);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->routes(), a.routes());
}

TEST(AssignmentIoTest, FileRoundTrip) {
  const MultiCenterInstance multi = SmallMulti();
  const Instance& inst = multi.centers[0];
  Assignment a(inst.num_workers());  // all-null is valid too
  const std::string path = ::testing::TempDir() + "/fta_assignment.csv";
  ASSERT_TRUE(SaveAssignment(path, a).ok());
  const auto back = LoadAssignment(path, inst);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_assigned_workers(), 0u);
  std::remove(path.c_str());
}

TEST(AssignmentIoTest, RejectsWorkerCountMismatch) {
  const MultiCenterInstance multi = SmallMulti();
  const Instance& inst = multi.centers[0];
  const std::string off_by_one =
      StrFormat("N,%zu\n", inst.num_workers() + 1);
  EXPECT_FALSE(DeserializeAssignment(off_by_one, inst).ok());
}

TEST(AssignmentIoTest, RejectsBadRows) {
  const MultiCenterInstance multi = SmallMulti();
  const Instance& inst = multi.centers[0];
  const std::string n = StrFormat("N,%zu\n", inst.num_workers());
  EXPECT_FALSE(DeserializeAssignment(n + "A,0\n", inst).ok());   // no stops
  EXPECT_FALSE(DeserializeAssignment(n + "A,9999,0\n", inst).ok());
  EXPECT_FALSE(DeserializeAssignment(n + "A,0,99999\n", inst).ok());
  EXPECT_FALSE(DeserializeAssignment(n + "A,0,0\nA,0,1\n", inst).ok());
  EXPECT_FALSE(DeserializeAssignment("A,0,0\n", inst).ok());  // missing N
  EXPECT_FALSE(DeserializeAssignment(n + "Z,1\n", inst).ok());
}

TEST(AssignmentIoTest, RejectsInvalidAssignments) {
  const MultiCenterInstance multi = SmallMulti();
  const Instance& inst = multi.centers[0];
  const std::string n = StrFormat("N,%zu\n", inst.num_workers());
  // Two workers claiming the same delivery point fails Validate().
  EXPECT_FALSE(
      DeserializeAssignment(n + "A,0,0\nA,1,0\n", inst).ok());
}

// ------------------------------------------------------------------- SVG --

Instance SvgInstance() {
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 1},
                   std::vector<SpatialTask>(3, SpatialTask{0, 10.0, 1.0}));
  dps.emplace_back(Point{4, 2},
                   std::vector<SpatialTask>(1, SpatialTask{1, 10.0, 1.0}));
  std::vector<Worker> workers{{{0, 0}, 2}, {{5, 5}, 2}};
  return Instance(Point{2.5, 2.5}, std::move(dps), std::move(workers),
                  TravelModel(1.0));
}

TEST(SvgTest, BareInstanceHasAllMarkers) {
  const std::string svg = RenderInstanceSvg(SvgInstance());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 2 delivery points, 2 workers, 1 center.
  size_t circles = 0, polygons = 0, rects = 0;
  for (size_t pos = 0; (pos = svg.find("<circle", pos)) != std::string::npos;
       ++pos)
    ++circles;
  for (size_t pos = 0; (pos = svg.find("<polygon", pos)) != std::string::npos;
       ++pos)
    ++polygons;
  for (size_t pos = 0; (pos = svg.find("<rect", pos)) != std::string::npos;
       ++pos)
    ++rects;
  EXPECT_EQ(circles, 2u);
  EXPECT_EQ(polygons, 2u);
  EXPECT_EQ(rects, 2u);  // background + center
  EXPECT_EQ(svg.find("<polyline"), std::string::npos);  // no routes drawn
}

TEST(SvgTest, AssignmentDrawsRoutes) {
  const Instance inst = SvgInstance();
  Assignment a(2);
  a.SetRoute(0, {0, 1});
  const std::string svg = RenderInstanceSvg(inst, &a);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
}

TEST(SvgTest, LabelsOptIn) {
  const Instance inst = SvgInstance();
  SvgOptions options;
  options.label_task_counts = true;
  const std::string svg = RenderInstanceSvg(inst, nullptr, options);
  EXPECT_NE(svg.find("<text"), std::string::npos);
  EXPECT_NE(svg.find(">3</text>"), std::string::npos);
}

TEST(SvgTest, WritesFile) {
  const std::string path = ::testing::TempDir() + "/fta_test.svg";
  ASSERT_TRUE(WriteInstanceSvg(path, SvgInstance()).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("<svg"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(SvgTest, DegenerateSinglePointInstance) {
  // Everything at one location: the projector must not divide by zero.
  std::vector<DeliveryPoint> dps;
  dps.emplace_back(Point{1, 1},
                   std::vector<SpatialTask>(1, SpatialTask{0, 5.0, 1.0}));
  Instance inst(Point{1, 1}, std::move(dps), {Worker{{1, 1}, 1}});
  const std::string svg = RenderInstanceSvg(inst);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_EQ(svg.find("nan"), std::string::npos);
  EXPECT_EQ(svg.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace fta
