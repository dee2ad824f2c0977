#include "io/road_network_io.h"

#include "common/csv.h"
#include "common/strings.h"

namespace stmaker {

Status WriteRoadNetworkCsv(const std::string& prefix,
                           const RoadNetwork& network) {
  {
    STMAKER_ASSIGN_OR_RETURN(CsvWriter writer,
                             CsvWriter::Open(prefix + "_nodes.csv"));
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({"node_id", "x", "y"}));
    for (const RoadNode& node : network.nodes()) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(node.id), StrFormat("%.3f", node.pos.x),
           StrFormat("%.3f", node.pos.y)}));
    }
    STMAKER_RETURN_IF_ERROR(writer.Close());
  }
  {
    STMAKER_ASSIGN_OR_RETURN(CsvWriter writer,
                             CsvWriter::Open(prefix + "_edges.csv"));
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({"edge_id", "from", "to",
                                             "grade", "width", "direction",
                                             "name", "bias"}));
    for (const RoadEdge& edge : network.edges()) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(edge.id), std::to_string(edge.from),
           std::to_string(edge.to),
           std::to_string(static_cast<int>(edge.grade)),
           StrFormat("%.3f", edge.width_m),
           std::to_string(static_cast<int>(edge.direction)), edge.name,
           StrFormat("%.6f", edge.cost_bias)}));
    }
    STMAKER_RETURN_IF_ERROR(writer.Close());
  }
  return Status::OK();
}

Result<RoadNetwork> ReadRoadNetworkCsv(const std::string& prefix) {
  RoadNetwork network;

  STMAKER_ASSIGN_OR_RETURN(
      CsvTableReader nodes,
      CsvTableReader::Open(prefix + "_nodes.csv", {"node_id", "x", "y"}));
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, nodes.Next());
    if (!more) break;
    STMAKER_ASSIGN_OR_RETURN(int64_t id, nodes.Int(0));
    STMAKER_ASSIGN_OR_RETURN(double x, nodes.Double(1));
    STMAKER_ASSIGN_OR_RETURN(double y, nodes.Double(2));
    NodeId assigned = network.AddNode({x, y});
    if (assigned != id) {
      return nodes.FieldError(0, "node ids must be dense and in file order");
    }
  }

  enum EdgeColumn { kId, kFrom, kTo, kGrade, kWidth, kDirection, kName, kBias };
  STMAKER_ASSIGN_OR_RETURN(
      CsvTableReader edges,
      CsvTableReader::Open(prefix + "_edges.csv",
                           {"edge_id", "from", "to", "grade", "width",
                            "direction", "name", "bias"}));
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, edges.Next());
    if (!more) break;
    STMAKER_ASSIGN_OR_RETURN(int64_t id, edges.Int(kId));
    STMAKER_ASSIGN_OR_RETURN(int64_t from, edges.Int(kFrom));
    STMAKER_ASSIGN_OR_RETURN(int64_t to, edges.Int(kTo));
    STMAKER_ASSIGN_OR_RETURN(int64_t grade, edges.Int(kGrade));
    STMAKER_ASSIGN_OR_RETURN(double width, edges.Double(kWidth));
    STMAKER_ASSIGN_OR_RETURN(int64_t direction, edges.Int(kDirection));
    STMAKER_ASSIGN_OR_RETURN(double bias, edges.Double(kBias));
    if (!IsValidRoadGrade(static_cast<int>(grade))) {
      return edges.FieldError(
          kGrade, StrFormat("invalid road grade %lld",
                            static_cast<long long>(grade)));
    }
    if (direction != 1 && direction != 2) {
      return edges.FieldError(
          kDirection, StrFormat("invalid traffic direction %lld",
                                static_cast<long long>(direction)));
    }
    Result<EdgeId> assigned =
        network.AddEdge(from, to, static_cast<RoadGrade>(grade), width,
                        static_cast<TrafficDirection>(direction),
                        std::string(edges.field(kName)));
    if (!assigned.ok()) return edges.RowError(assigned.status().message());
    if (*assigned != id) {
      return edges.FieldError(kId, "edge ids must be dense and in file order");
    }
    network.mutable_edge(*assigned).cost_bias = bias;
  }

  network.AnnotateTurningPoints();
  network.BuildSpatialIndex();
  return network;
}

}  // namespace stmaker
