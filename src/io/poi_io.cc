#include "io/poi_io.h"

#include "common/csv.h"
#include "common/strings.h"

namespace stmaker {

Status WritePoisCsv(const std::string& path,
                    const std::vector<RawPoi>& pois) {
  STMAKER_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  STMAKER_RETURN_IF_ERROR(writer.WriteRow({"x", "y", "name"}));
  for (const RawPoi& poi : pois) {
    STMAKER_RETURN_IF_ERROR(writer.WriteRow({StrFormat("%.3f", poi.pos.x),
                                             StrFormat("%.3f", poi.pos.y),
                                             poi.name}));
  }
  return writer.Close();
}

Result<std::vector<RawPoi>> ReadPoisCsv(const std::string& path) {
  STMAKER_ASSIGN_OR_RETURN(CsvTableReader reader,
                           CsvTableReader::Open(path, {"x", "y", "name"}));
  std::vector<RawPoi> out;
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, reader.Next());
    if (!more) break;
    STMAKER_ASSIGN_OR_RETURN(double x, reader.Double(0));
    STMAKER_ASSIGN_OR_RETURN(double y, reader.Double(1));
    out.push_back({{x, y}, std::string(reader.field(2))});
  }
  return out;
}

}  // namespace stmaker
