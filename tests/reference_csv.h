#ifndef STMAKER_TESTS_REFERENCE_CSV_H_
#define STMAKER_TESTS_REFERENCE_CSV_H_

/// \file
/// Reference dataset readers for differential tests: the straightforward
/// materializing pipeline — parse the whole file into a vector of field
/// strings, check the header and row widths, then strtod/strtoll every
/// field — that the streaming CsvTableReader must agree with. Only the
/// status code and the values are compared; messages may differ.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/fileutil.h"
#include "common/status.h"
#include "landmark/poi_generator.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker::testing::reference {

using Rows = std::vector<std::vector<std::string>>;

/// RFC 4180 parse of the whole text; rows may be ragged.
inline Result<Rows> ParseCsv(const std::string& text) {
  Rows rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        field_started = true;
        break;
      case '\r':
        break;
      case '\n':
        row.push_back(std::move(field));
        field.clear();
        rows.push_back(std::move(row));
        row.clear();
        field_started = false;
        break;
      default:
        field += c;
        field_started = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (field_started || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Reads `path`, checks the header and that every row has its width, and
/// returns the data rows.
inline Result<Rows> ReadCsvTable(const std::string& path,
                                 const std::vector<std::string>& header) {
  STMAKER_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  STMAKER_ASSIGN_OR_RETURN(Rows rows, ParseCsv(text));
  if (rows.empty() || rows[0] != header) {
    return Status::InvalidArgument(path + ": bad or missing CSV header");
  }
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != header.size()) {
      return Status::InvalidArgument(path + ": ragged row");
    }
  }
  rows.erase(rows.begin());
  return rows;
}

inline Result<double> ParseDouble(const std::string& field) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + field + "'");
  }
  return v;
}

inline Result<int64_t> ParseInt(const std::string& field) {
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + field + "'");
  }
  return static_cast<int64_t>(v);
}

inline Result<std::vector<RawTrajectory>> ReadTrajectoriesCsv(
    const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(
      Rows rows,
      ReadCsvTable(path, {"trajectory_id", "traveler", "x", "y", "time"}));
  std::vector<RawTrajectory> out;
  int64_t current_id = 0;
  std::unordered_set<int64_t> seen_ids;
  for (const auto& row : rows) {
    STMAKER_ASSIGN_OR_RETURN(int64_t id, ParseInt(row[0]));
    STMAKER_ASSIGN_OR_RETURN(int64_t traveler, ParseInt(row[1]));
    STMAKER_ASSIGN_OR_RETURN(double x, ParseDouble(row[2]));
    STMAKER_ASSIGN_OR_RETURN(double y, ParseDouble(row[3]));
    STMAKER_ASSIGN_OR_RETURN(double time, ParseDouble(row[4]));
    if (out.empty() || id != current_id) {
      if (!seen_ids.insert(id).second) {
        return Status::InvalidArgument("trajectory id is interleaved");
      }
      out.emplace_back();
      current_id = id;
    }
    out.back().traveler = traveler;
    out.back().samples.push_back({{x, y}, time});
  }
  return out;
}

inline Result<std::vector<RawPoi>> ReadPoisCsv(const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(Rows rows, ReadCsvTable(path, {"x", "y", "name"}));
  std::vector<RawPoi> out;
  for (const auto& row : rows) {
    STMAKER_ASSIGN_OR_RETURN(double x, ParseDouble(row[0]));
    STMAKER_ASSIGN_OR_RETURN(double y, ParseDouble(row[1]));
    out.push_back({{x, y}, row[2]});
  }
  return out;
}

inline Result<RoadNetwork> ReadRoadNetworkCsv(const std::string& prefix) {
  RoadNetwork network;
  STMAKER_ASSIGN_OR_RETURN(
      Rows node_rows,
      ReadCsvTable(prefix + "_nodes.csv", {"node_id", "x", "y"}));
  for (const auto& row : node_rows) {
    STMAKER_ASSIGN_OR_RETURN(int64_t id, ParseInt(row[0]));
    STMAKER_ASSIGN_OR_RETURN(double x, ParseDouble(row[1]));
    STMAKER_ASSIGN_OR_RETURN(double y, ParseDouble(row[2]));
    if (network.AddNode({x, y}) != id) {
      return Status::InvalidArgument("node ids must be dense");
    }
  }
  STMAKER_ASSIGN_OR_RETURN(
      Rows edge_rows,
      ReadCsvTable(prefix + "_edges.csv", {"edge_id", "from", "to", "grade",
                                           "width", "direction", "name",
                                           "bias"}));
  for (const auto& row : edge_rows) {
    STMAKER_ASSIGN_OR_RETURN(int64_t id, ParseInt(row[0]));
    STMAKER_ASSIGN_OR_RETURN(int64_t from, ParseInt(row[1]));
    STMAKER_ASSIGN_OR_RETURN(int64_t to, ParseInt(row[2]));
    STMAKER_ASSIGN_OR_RETURN(int64_t grade, ParseInt(row[3]));
    STMAKER_ASSIGN_OR_RETURN(double width, ParseDouble(row[4]));
    STMAKER_ASSIGN_OR_RETURN(int64_t direction, ParseInt(row[5]));
    STMAKER_ASSIGN_OR_RETURN(double bias, ParseDouble(row[7]));
    if (!IsValidRoadGrade(static_cast<int>(grade))) {
      return Status::InvalidArgument("invalid road grade");
    }
    if (direction != 1 && direction != 2) {
      return Status::InvalidArgument("invalid traffic direction");
    }
    STMAKER_ASSIGN_OR_RETURN(
        EdgeId assigned,
        network.AddEdge(from, to, static_cast<RoadGrade>(grade), width,
                        static_cast<TrafficDirection>(direction), row[6]));
    if (assigned != id) {
      return Status::InvalidArgument("edge ids must be dense");
    }
    network.mutable_edge(assigned).cost_bias = bias;
  }
  network.AnnotateTurningPoints();
  network.BuildSpatialIndex();
  return network;
}

}  // namespace stmaker::testing::reference

#endif  // STMAKER_TESTS_REFERENCE_CSV_H_
