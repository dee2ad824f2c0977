#include "io/trajectory_io.h"

#include <unordered_set>

#include "common/csv.h"
#include "common/strings.h"

namespace stmaker {

Status WriteTrajectoriesCsv(const std::string& path,
                            const std::vector<RawTrajectory>& trajectories) {
  STMAKER_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  STMAKER_RETURN_IF_ERROR(
      writer.WriteRow({"trajectory_id", "traveler", "x", "y", "time"}));
  for (size_t t = 0; t < trajectories.size(); ++t) {
    const RawTrajectory& trajectory = trajectories[t];
    for (const RawSample& s : trajectory.samples) {
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(t), std::to_string(trajectory.traveler),
           StrFormat("%.3f", s.pos.x), StrFormat("%.3f", s.pos.y),
           StrFormat("%.3f", s.time)}));
    }
  }
  return writer.Close();
}

Result<std::vector<RawTrajectory>> ReadTrajectoriesCsv(
    const std::string& path) {
  enum Column { kId, kTraveler, kX, kY, kTime };
  STMAKER_ASSIGN_OR_RETURN(
      CsvTableReader reader,
      CsvTableReader::Open(path,
                           {"trajectory_id", "traveler", "x", "y", "time"}));

  std::vector<RawTrajectory> out;
  int64_t current_id = 0;
  std::unordered_set<int64_t> seen_ids;
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, reader.Next());
    if (!more) break;
    STMAKER_ASSIGN_OR_RETURN(int64_t id, reader.Int(kId));
    STMAKER_ASSIGN_OR_RETURN(int64_t traveler, reader.Int(kTraveler));
    STMAKER_ASSIGN_OR_RETURN(double x, reader.Double(kX));
    STMAKER_ASSIGN_OR_RETURN(double y, reader.Double(kY));
    STMAKER_ASSIGN_OR_RETURN(double time, reader.Double(kTime));
    if (out.empty() || id != current_id) {
      if (!seen_ids.insert(id).second) {
        return reader.FieldError(
            kId, StrFormat("trajectory id %lld is interleaved",
                           static_cast<long long>(id)));
      }
      out.emplace_back();
      current_id = id;
    }
    out.back().traveler = traveler;
    out.back().samples.push_back({{x, y}, time});
  }
  return out;
}

}  // namespace stmaker
