#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"
#include "common/fileutil.h"
#include "common/strings.h"
#include "io/json.h"
#include "io/geojson.h"
#include "io/latlon_io.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/summary_json.h"
#include "io/trajectory_io.h"
#include "roadnet/map_generator.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// Trajectory CSV
// --------------------------------------------------------------------------

TEST(TrajectoryIoTest, RoundTrip) {
  std::vector<RawTrajectory> corpus(2);
  corpus[0].traveler = 7;
  corpus[0].samples = {{{1.25, -2.5}, 100.0}, {{3.0, 4.0}, 110.5}};
  corpus[1].traveler = -1;
  corpus[1].samples = {{{0, 0}, 0.0}, {{10, 0}, 9.0}, {{20, 0}, 18.0}};

  std::string path = TempPath("traj_roundtrip.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, corpus).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].traveler, 7);
  EXPECT_EQ((*loaded)[1].traveler, -1);
  ASSERT_EQ((*loaded)[0].samples.size(), 2u);
  EXPECT_NEAR((*loaded)[0].samples[0].pos.x, 1.25, 1e-3);
  EXPECT_NEAR((*loaded)[0].samples[0].pos.y, -2.5, 1e-3);
  EXPECT_NEAR((*loaded)[0].samples[1].time, 110.5, 1e-3);
  ASSERT_EQ((*loaded)[1].samples.size(), 3u);
}

TEST(TrajectoryIoTest, RoundTripGeneratedCorpus) {
  const auto& world = GetTestWorld();
  std::vector<RawTrajectory> corpus;
  for (size_t i = 0; i < 5; ++i) corpus.push_back(world.history[i].raw);
  std::string path = TempPath("traj_generated.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, corpus).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), corpus.size());
  for (size_t t = 0; t < corpus.size(); ++t) {
    ASSERT_EQ((*loaded)[t].samples.size(), corpus[t].samples.size());
    for (size_t i = 0; i < corpus[t].samples.size(); ++i) {
      EXPECT_NEAR((*loaded)[t].samples[i].pos.x,
                  corpus[t].samples[i].pos.x, 1e-3);
      EXPECT_NEAR((*loaded)[t].samples[i].time, corpus[t].samples[i].time,
                  1e-3);
    }
  }
}

TEST(TrajectoryIoTest, EmptyCorpusRoundTrips) {
  std::string path = TempPath("traj_empty.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, {}).ok());
  auto loaded = ReadTrajectoriesCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(TrajectoryIoTest, RejectsBadHeader) {
  std::string path = TempPath("traj_badheader.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRow({"a", "b"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  EXPECT_EQ(ReadTrajectoriesCsv(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrajectoryIoTest, RejectsNonNumericField) {
  std::string path = TempPath("traj_nonnumeric.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "traveler", "x", "y",
                                "time"})
                    .ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "2", "0", "0"}).ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "abc", "0", "0"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto read = ReadTrajectoriesCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  // An operator can find the bad field: path, 1-based row (the header is
  // row 1), and column.
  EXPECT_EQ(read.status().message(),
            path + ": row 3, column 'x': not a number: 'abc'");
}

TEST(TrajectoryIoTest, RejectsInterleavedIds) {
  std::string path = TempPath("traj_interleaved.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "traveler", "x", "y",
                                "time"})
                    .ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "0", "0", "0"}).ok());
    ASSERT_TRUE(writer->WriteRow({"1", "1", "0", "0", "0"}).ok());
    ASSERT_TRUE(writer->WriteRow({"0", "1", "5", "0", "5"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto read = ReadTrajectoriesCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("row 4, column 'trajectory_id'"),
            std::string::npos)
      << read.status().message();

  // A repeat after 20,000 distinct ids: still caught, in linear time.
  std::string text = "trajectory_id,traveler,x,y,time\n";
  constexpr int kTrips = 20000;
  for (int id = 0; id < kTrips; ++id) {
    text += std::to_string(id) + ",1,0,0,0\n";
  }
  text += "17,1,0,0,0\n";
  std::string many = TempPath("traj_interleaved_many.csv");
  ASSERT_TRUE(WriteFileToPath(many, text).ok());
  auto late = ReadTrajectoriesCsv(many);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(late.status().message().find(
                StrFormat("row %d, column 'trajectory_id': trajectory id 17 "
                          "is interleaved",
                          kTrips + 2)),
            std::string::npos)
      << late.status().message();
}

TEST(TrajectoryIoTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadTrajectoriesCsv("/nonexistent_zz/t.csv").status().code(),
            StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// Road network CSV
// --------------------------------------------------------------------------

TEST(RoadNetworkIoTest, RoundTripGeneratedCity) {
  MapGeneratorOptions options;
  options.blocks_x = 6;
  options.blocks_y = 6;
  options.seed = 11;
  GeneratedMap city = MapGenerator(options).Generate();
  std::string prefix = TempPath("net_roundtrip");
  ASSERT_TRUE(WriteRoadNetworkCsv(prefix, city.network).ok());
  auto loaded = ReadRoadNetworkCsv(prefix);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumNodes(), city.network.NumNodes());
  ASSERT_EQ(loaded->NumEdges(), city.network.NumEdges());
  for (size_t n = 0; n < city.network.NumNodes(); ++n) {
    EXPECT_NEAR(loaded->node(n).pos.x, city.network.node(n).pos.x, 1e-3);
    EXPECT_EQ(loaded->node(n).is_turning_point,
              city.network.node(n).is_turning_point);
  }
  for (size_t e = 0; e < city.network.NumEdges(); ++e) {
    const RoadEdge& a = city.network.edge(e);
    const RoadEdge& b = loaded->edge(e);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.grade, b.grade);
    EXPECT_EQ(a.direction, b.direction);
    EXPECT_EQ(a.name, b.name);
    EXPECT_NEAR(a.width_m, b.width_m, 1e-3);
    EXPECT_NEAR(a.cost_bias, b.cost_bias, 1e-6);
  }
  // The loaded network is immediately usable for spatial queries.
  EXPECT_GE(loaded->NearestEdge(city.network.node(0).pos, 100.0), 0);
}

TEST(RoadNetworkIoTest, RejectsInvalidGrade) {
  std::string prefix = TempPath("net_badgrade");
  {
    auto nodes = CsvWriter::Open(prefix + "_nodes.csv");
    ASSERT_TRUE(nodes.ok());
    ASSERT_TRUE(nodes->WriteRow({"node_id", "x", "y"}).ok());
    ASSERT_TRUE(nodes->WriteRow({"0", "0", "0"}).ok());
    ASSERT_TRUE(nodes->WriteRow({"1", "100", "0"}).ok());
    ASSERT_TRUE(nodes->Close().ok());
    auto edges = CsvWriter::Open(prefix + "_edges.csv");
    ASSERT_TRUE(edges.ok());
    ASSERT_TRUE(edges
                    ->WriteRow({"edge_id", "from", "to", "grade", "width",
                                "direction", "name", "bias"})
                    .ok());
    ASSERT_TRUE(
        edges->WriteRow({"0", "0", "1", "9", "10", "1", "X", "1.0"}).ok());
    ASSERT_TRUE(edges->Close().ok());
  }
  auto read = ReadRoadNetworkCsv(prefix);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(),
            prefix + "_edges.csv: row 2, column 'grade': invalid road grade 9");
}

// --------------------------------------------------------------------------
// POI CSV
// --------------------------------------------------------------------------

TEST(PoiIoTest, RoundTripWithQuotedNames) {
  std::vector<RawPoi> pois = {{{1, 2}, "Plain Park"},
                              {{3, 4}, "Comma, Market"},
                              {{5, 6}, "Quote \" Tower"}};
  std::string path = TempPath("pois_roundtrip.csv");
  ASSERT_TRUE(WritePoisCsv(path, pois).ok());
  auto loaded = ReadPoisCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < pois.size(); ++i) {
    EXPECT_NEAR((*loaded)[i].pos.x, pois[i].pos.x, 1e-3);
    EXPECT_EQ((*loaded)[i].name, pois[i].name);
  }
}

TEST(PoiIoTest, BadCoordinateNamesRowAndColumn) {
  std::string path = TempPath("pois_bad.csv");
  ASSERT_TRUE(WriteFileToPath(path, "x,y,name\n1,2,A\n3,4,B\n5,,C\n").ok());
  auto loaded = ReadPoisCsv(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message(),
            path + ": row 4, column 'y': not a number: ''");
}

// --------------------------------------------------------------------------
// JsonWriter
// --------------------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter json;
  json.BeginObject();
  json.Key("a").Int(1);
  json.Key("b").BeginArray().Int(1).Int(2).Int(3).EndArray();
  json.Key("c").BeginObject().Key("x").Bool(true).EndObject();
  json.Key("d").Null();
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"a\":1,\"b\":[1,2,3],\"c\":{\"x\":true},"
                        "\"d\":null}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonWriter::Escape("say \"hi\"\n\t\\"),
            "say \\\"hi\\\"\\n\\t\\\\");
  EXPECT_EQ(JsonWriter::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, NumbersAreCompact) {
  JsonWriter json;
  json.BeginArray().Number(1.5).Number(2.0).Number(-0.25).EndArray();
  EXPECT_EQ(json.str(), "[1.5,2,-0.25]");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray()
      .Number(std::numeric_limits<double>::quiet_NaN())
      .Number(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(json.str(), "[null,null]");
}

// --------------------------------------------------------------------------
// Summary JSON
// --------------------------------------------------------------------------

TEST(SummaryJsonTest, SerializesRealSummary) {
  const auto& world = GetTestWorld();
  Random rng(7);
  Result<GeneratedTrip> trip =
      world.generator->GenerateTrip(9 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());
  auto summary = world.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  std::string json = SummaryToJson(*summary, world.maker->registry());
  // Structural sanity: starts/ends correctly, contains the key sections,
  // balanced braces and brackets.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"text\":"), std::string::npos);
  EXPECT_NE(json.find("\"symbolic\":"), std::string::npos);
  EXPECT_NE(json.find("\"partitions\":"), std::string::npos);
  EXPECT_NE(json.find("\"irregular_rates\":"), std::string::npos);
  EXPECT_NE(json.find("\"grade_of_road\":"), std::string::npos);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  int brackets = 0;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(depth, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}


// --------------------------------------------------------------------------
// Lat/lon (Table I format) trajectories
// --------------------------------------------------------------------------

TEST(LatLonIoTest, PaperTimestampRoundTrip) {
  // The paper's Table I example.
  auto t = ParsePaperTimestamp("20131102 09:17:56");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatPaperTimestamp(*t), "20131102 09:17:56");
  // 1970 epoch sanity.
  auto epoch = ParsePaperTimestamp("19700101 00:00:00");
  ASSERT_TRUE(epoch.ok());
  EXPECT_DOUBLE_EQ(*epoch, 0.0);
  // Successive fixes differ by the right number of seconds.
  auto later = ParsePaperTimestamp("20131102 09:18:02");
  ASSERT_TRUE(later.ok());
  EXPECT_DOUBLE_EQ(*later - *t, 6.0);
  // Leap-year day.
  auto feb29 = ParsePaperTimestamp("20240229 12:00:00");
  ASSERT_TRUE(feb29.ok());
  EXPECT_EQ(FormatPaperTimestamp(*feb29), "20240229 12:00:00");
}

TEST(LatLonIoTest, ParseRejectsMalformedTimestamps) {
  EXPECT_FALSE(ParsePaperTimestamp("2013-11-02 09:17:56").ok());
  EXPECT_FALSE(ParsePaperTimestamp("20131102").ok());
  EXPECT_FALSE(ParsePaperTimestamp("20131302 09:17:56").ok());  // month 13
  EXPECT_FALSE(ParsePaperTimestamp("20131102 25:17:56").ok());  // hour 25
  EXPECT_FALSE(ParsePaperTimestamp("").ok());
}

TEST(LatLonIoTest, TrajectoryRoundTripThroughLatLon) {
  LocalProjection projection(LatLon{39.9, 116.4});
  std::vector<RawTrajectory> corpus(1);
  auto t0 = ParsePaperTimestamp("20131102 09:17:56");
  ASSERT_TRUE(t0.ok());
  corpus[0].samples = {{{100.0, 250.0}, *t0},
                       {{180.0, 240.0}, *t0 + 6},
                       {{260.0, 230.0}, *t0 + 12}};
  std::string path = TempPath("latlon_roundtrip.csv");
  ASSERT_TRUE(WriteLatLonTrajectoriesCsv(path, corpus, projection).ok());
  auto loaded = ReadLatLonTrajectoriesCsv(path, projection);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  ASSERT_EQ((*loaded)[0].samples.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    // Lat/lon serialization at 1e-6 degrees keeps ~0.1 m precision.
    EXPECT_NEAR((*loaded)[0].samples[i].pos.x, corpus[0].samples[i].pos.x,
                0.2);
    EXPECT_NEAR((*loaded)[0].samples[i].pos.y, corpus[0].samples[i].pos.y,
                0.2);
    EXPECT_NEAR((*loaded)[0].samples[i].time, corpus[0].samples[i].time,
                0.5);
  }
}

TEST(LatLonIoTest, RejectsOutOfRangeCoordinates) {
  std::string path = TempPath("latlon_badcoord.csv");
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->WriteRow({"trajectory_id", "latitude", "longitude",
                                "timestamp"})
                    .ok());
    ASSERT_TRUE(
        writer->WriteRow({"0", "95.0", "116.4", "20131102 09:17:56"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  LocalProjection projection(LatLon{39.9, 116.4});
  auto read = ReadLatLonTrajectoriesCsv(path, projection);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(),
            path + ": row 2, column 'latitude': coordinate out of range");
}


// --------------------------------------------------------------------------
// GeoJSON export
// --------------------------------------------------------------------------

TEST(GeoJsonTest, TrajectoryExportIsWellFormed) {
  LocalProjection projection(LatLon{39.9, 116.4});
  RawTrajectory t;
  t.traveler = 3;
  t.samples = {{{0, 0}, 100.0}, {{500, 0}, 150.0}, {{500, 500}, 200.0}};
  std::string geojson = TrajectoryToGeoJson(t, projection);
  EXPECT_NE(geojson.find("\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(geojson.find("\"LineString\""), std::string::npos);
  EXPECT_NE(geojson.find("\"raw_trajectory\""), std::string::npos);
  // The first coordinate is the projection origin (lon first per GeoJSON).
  EXPECT_NE(geojson.find("[116.4,39.9]"), std::string::npos);
}

TEST(GeoJsonTest, SummaryExportContainsPartitionsAndLandmarks) {
  const auto& world = GetTestWorld();
  Random rng(12);
  auto trip = world.generator->GenerateTrip(8 * 3600.0, &rng);
  ASSERT_TRUE(trip.ok());
  auto summary = world.maker->Summarize(trip->raw);
  ASSERT_TRUE(summary.ok());
  LocalProjection projection(LatLon{39.9, 116.4});
  std::string geojson =
      SummaryToGeoJson(*summary, *world.landmarks, projection);
  EXPECT_NE(geojson.find("\"partition\""), std::string::npos);
  EXPECT_NE(geojson.find("\"landmark\""), std::string::npos);
  EXPECT_NE(geojson.find("\"sentence\""), std::string::npos);
  // Every partition contributes one LineString.
  size_t count = 0;
  size_t at = 0;
  while ((at = geojson.find("\"LineString\"", at)) != std::string::npos) {
    ++count;
    ++at;
  }
  EXPECT_EQ(count, summary->partitions.size());
  // Balanced braces (same structural check as the summary JSON test).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : geojson) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

// --------------------------------------------------------------------------
// NdjsonReader (bounded serve-loop line reader)
// --------------------------------------------------------------------------

TEST(NdjsonReaderTest, ReadsLinesAndStopsAtCleanEof) {
  std::istringstream in("{\"id\": 1}\n\n{\"id\": 2}\n");
  NdjsonReader reader(&in);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 1}");
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "");  // blank lines are the caller's to skip
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 2}");
  got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);  // clean EOF
  EXPECT_EQ(reader.lines_read(), 3u);
  EXPECT_EQ(reader.oversized_lines(), 0u);
}

TEST(NdjsonReaderTest, MultiMegabyteLineIsRejectedWithBoundedMemory) {
  // A 3 MiB line against a 1 MiB cap: the reader must reject it with
  // kInvalidArgument, never buffer more than the cap, and resynchronize so
  // the next line still parses.
  constexpr size_t kLineBytes = 3u << 20;
  std::string input(kLineBytes, 'x');
  input += "\n{\"id\": 9}\n";
  std::istringstream in(input);
  NdjsonReader reader(&in, /*max_line_bytes=*/1u << 20);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("exceeds"), std::string::npos);
  EXPECT_TRUE(line.empty());               // nothing leaks to the caller
  EXPECT_LE(line.capacity(), 1u << 20);    // the buffer did not balloon
  EXPECT_EQ(reader.oversized_lines(), 1u);
  got = reader.Next(&line);  // stream re-synced past the bad line
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(line, "{\"id\": 9}");
}

TEST(NdjsonReaderTest, OversizedLineAtExactBoundaryPasses) {
  std::string exact(64, 'y');
  std::istringstream in(exact + "\n");
  NdjsonReader reader(&in, /*max_line_bytes=*/64);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(line, exact);
}

TEST(NdjsonReaderTest, TruncatedFinalLineIsAnError) {
  std::istringstream in("{\"id\": 1}\n{\"id\": 2");  // no trailing newline
  NdjsonReader reader(&in);
  std::string line;
  Result<bool> got = reader.Next(&line);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(line, "{\"id\": 1}");
  got = reader.Next(&line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("mid-line"), std::string::npos);
}

}  // namespace
}  // namespace stmaker
