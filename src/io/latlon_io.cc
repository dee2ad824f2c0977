#include "io/latlon_io.h"

#include <cmath>
#include <cstdio>

#include "common/csv.h"
#include "common/strings.h"

namespace stmaker {

namespace {

// Days from 1970-01-01 to y-m-d (proleptic Gregorian), via the classic
// civil-date algorithm (Howard Hinnant's days_from_civil).
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

// Inverse (civil_from_days).
void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}

}  // namespace

Result<double> ParsePaperTimestamp(const std::string& text) {
  int year = 0;
  int month = 0;
  int day = 0;
  int hour = 0;
  int minute = 0;
  int second = 0;
  char tail = '\0';
  int matched = std::sscanf(text.c_str(), "%4d%2d%2d %2d:%2d:%2d%c", &year,
                            &month, &day, &hour, &minute, &second, &tail);
  if (matched != 6) {
    return Status::InvalidArgument("bad timestamp (want YYYYMMDD HH:MM:SS): " +
                                   text);
  }
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour < 0 ||
      hour > 23 || minute < 0 || minute > 59 || second < 0 || second > 60) {
    return Status::InvalidArgument("timestamp field out of range: " + text);
  }
  int64_t days = DaysFromCivil(year, month, day);
  return static_cast<double>(days) * kSecondsPerDay + hour * 3600.0 +
         minute * 60.0 + second;
}

std::string FormatPaperTimestamp(double absolute_seconds) {
  int64_t days = static_cast<int64_t>(
      std::floor(absolute_seconds / kSecondsPerDay));
  double tod = absolute_seconds - static_cast<double>(days) * kSecondsPerDay;
  int y;
  unsigned m;
  unsigned d;
  CivilFromDays(days, &y, &m, &d);
  int total = static_cast<int>(std::llround(tod));
  if (total >= 86400) total = 86399;  // guard rounding at midnight
  return StrFormat("%04d%02u%02u %02d:%02d:%02d", y, m, d, total / 3600,
                   (total % 3600) / 60, total % 60);
}

Status WriteLatLonTrajectoriesCsv(
    const std::string& path, const std::vector<RawTrajectory>& trajectories,
    const LocalProjection& projection) {
  STMAKER_ASSIGN_OR_RETURN(CsvWriter writer, CsvWriter::Open(path));
  STMAKER_RETURN_IF_ERROR(writer.WriteRow(
      {"trajectory_id", "latitude", "longitude", "timestamp"}));
  for (size_t t = 0; t < trajectories.size(); ++t) {
    for (const RawSample& s : trajectories[t].samples) {
      LatLon ll = projection.ToLatLon(s.pos);
      STMAKER_RETURN_IF_ERROR(writer.WriteRow(
          {std::to_string(t), StrFormat("%.6f", ll.lat),
           StrFormat("%.6f", ll.lon), FormatPaperTimestamp(s.time)}));
    }
  }
  return writer.Close();
}

Result<std::vector<RawTrajectory>> ReadLatLonTrajectoriesCsv(
    const std::string& path, const LocalProjection& projection) {
  enum Column { kId, kLat, kLon, kTimestamp };
  STMAKER_ASSIGN_OR_RETURN(
      CsvTableReader reader,
      CsvTableReader::Open(
          path, {"trajectory_id", "latitude", "longitude", "timestamp"}));
  std::vector<RawTrajectory> out;
  std::string current_id;
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, reader.Next());
    if (!more) break;
    STMAKER_ASSIGN_OR_RETURN(double lat, reader.Double(kLat));
    STMAKER_ASSIGN_OR_RETURN(double lon, reader.Double(kLon));
    Result<double> time =
        ParsePaperTimestamp(std::string(reader.field(kTimestamp)));
    if (!time.ok()) {
      return reader.FieldError(kTimestamp, time.status().message());
    }
    if (lat < -90 || lat > 90) {
      return reader.FieldError(kLat, "coordinate out of range");
    }
    if (lon < -180 || lon > 180) {
      return reader.FieldError(kLon, "coordinate out of range");
    }
    if (out.empty() || reader.field(kId) != current_id) {
      out.emplace_back();
      current_id = reader.field(kId);
    }
    out.back().samples.push_back({projection.ToXY({lat, lon}), *time});
  }
  return out;
}

}  // namespace stmaker
