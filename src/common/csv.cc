#include "common/csv.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/fileutil.h"
#include "common/strings.h"

namespace stmaker {

namespace {

bool NeedsQuoting(const std::string& field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

// What the unquoted-field scan does on each byte value.
constexpr uint8_t kPlain = 0;
constexpr uint8_t kEndOfField = 1;  // ',' or '\n'
constexpr uint8_t kNeedsCopy = 2;   // '"' or '\r'
constexpr std::array<uint8_t, 256> kByteKind = [] {
  std::array<uint8_t, 256> kind{};
  kind[','] = kind['\n'] = kEndOfField;
  kind['"'] = kind['\r'] = kNeedsCopy;
  return kind;
}();

// Quotes a field for an error message, truncated so a runaway field cannot
// flood the log.
std::string QuoteForError(std::string_view field) {
  constexpr size_t kMax = 64;
  std::string out = "'";
  out.append(field.substr(0, kMax));
  if (field.size() > kMax) out += "...";
  out += '\'';
  return out;
}

}  // namespace

std::string FormatCsvRow(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += NeedsQuoting(fields[i]) ? QuoteField(fields[i]) : fields[i];
  }
  line += '\n';
  return line;
}

Result<CsvWriter> CsvWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  return CsvWriter(f);
}

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("CSV writer is closed");
  }
  std::string line = FormatCsvRow(fields);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IoError("short write");
  }
  return Status::OK();
}

Status CsvWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IoError("close failed");
  return Status::OK();
}

std::optional<double> ParseDoubleField(std::string_view field) {
  const char* last = field.data() + field.size();
  double value = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  if (ec == std::errc() && ptr == last && !std::isnan(value)) return value;
  // Everything from_chars leaves to strtod: blanks, '+', hex, overflow,
  // NaN payloads — and every rejection, so the verdict is strtod's.
  const std::string copy(field);
  char* end = nullptr;
  value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') return std::nullopt;
  return value;
}

std::optional<int64_t> ParseIntField(std::string_view field) {
  const char* last = field.data() + field.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  if (ec == std::errc() && ptr == last) return value;
  const std::string copy(field);
  char* end = nullptr;
  const long long parsed = std::strtoll(copy.c_str(), &end, 10);
  if (end == copy.c_str() || *end != '\0') return std::nullopt;
  return static_cast<int64_t>(parsed);
}

Result<CsvTableReader> CsvTableReader::Open(const std::string& path,
                                            std::vector<std::string> header) {
  STMAKER_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return FromText(std::move(text), std::move(header), path);
}

Result<CsvTableReader> CsvTableReader::FromText(
    std::string text, std::vector<std::string> header, std::string context) {
  CsvTableReader reader(std::move(text), std::move(header),
                        std::move(context));
  STMAKER_RETURN_IF_ERROR(reader.CheckHeader());
  return reader;
}

Status CsvTableReader::CheckHeader() {
  STMAKER_ASSIGN_OR_RETURN(bool found, ScanRecord());
  const std::string want = Join(header_, ",");
  if (!found) {
    return Status::InvalidArgument(context_ + ": missing CSV header (want '" +
                                   want + "')");
  }
  bool same = spans_.size() == header_.size();
  for (size_t c = 0; same && c < spans_.size(); ++c) {
    same = field(c) == header_[c];
  }
  if (!same) {
    std::string got;
    for (size_t c = 0; c < spans_.size(); ++c) {
      if (c > 0) got += ',';
      got += field(c);
    }
    return Status::InvalidArgument(context_ + ": bad CSV header '" + got +
                                   "' (want '" + want + "')");
  }
  return Status::OK();
}

Result<bool> CsvTableReader::Next() {
  STMAKER_ASSIGN_OR_RETURN(bool found, ScanRecord());
  if (!found) return false;
  if (spans_.size() != header_.size()) {
    return RowError(StrFormat("has %zu fields, want %zu", spans_.size(),
                              header_.size()));
  }
  return true;
}

Result<bool> CsvTableReader::ScanRecord() {
  const size_t n = text_.size();
  // Input that ends in bare CRs holds no further record.
  size_t next = pos_;
  while (next < n && text_[next] == '\r') ++next;
  if (next == n) {
    pos_ = n;
    return false;
  }
  spans_.clear();
  scratch_.clear();
  ++row_;
  for (;;) {
    if (!ScanField()) {
      return RowError("unterminated quoted CSV field");
    }
    if (pos_ == n) return true;
    if (text_[pos_++] == '\n') return true;  // else the ',' separator
  }
}

bool CsvTableReader::ScanField() {
  const char* text = text_.data();
  const size_t n = text_.size();
  const size_t begin = pos_;
  auto kind = [text](size_t at) {
    return kByteKind[static_cast<unsigned char>(text[at])];
  };
  size_t i = begin;
  while (i < n && kind(i) == kPlain) ++i;
  if (i == n || kind(i) == kEndOfField) {
    spans_.push_back({begin, i - begin, false});
    pos_ = i;
    return true;
  }
  // Slow path: unquote into the scratch buffer from the field's start.
  const size_t out = scratch_.size();
  bool in_quotes = false;
  for (i = begin; i < n; ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c != '"') {
        scratch_ += c;
      } else if (i + 1 < n && text[i + 1] == '"') {
        scratch_ += '"';
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',' || c == '\n') {
      break;
    } else if (c != '\r') {
      scratch_ += c;
    }
  }
  if (in_quotes) return false;
  spans_.push_back({out, scratch_.size() - out, true});
  pos_ = i;
  return true;
}

Status CsvTableReader::FieldError(size_t column,
                                  const std::string& what) const {
  return Status::InvalidArgument(StrFormat("%s: row %zu, column '%s': %s",
                                           context_.c_str(), row_,
                                           header_[column].c_str(),
                                           what.c_str()));
}

Status CsvTableReader::RowError(const std::string& what) const {
  return Status::InvalidArgument(
      StrFormat("%s: row %zu: %s", context_.c_str(), row_, what.c_str()));
}

Result<double> CsvTableReader::Double(size_t column) const {
  const std::optional<double> value = ParseDoubleField(field(column));
  if (!value) {
    return FieldError(column, "not a number: " + QuoteForError(field(column)));
  }
  return *value;
}

Result<int64_t> CsvTableReader::Int(size_t column) const {
  const std::optional<int64_t> value = ParseIntField(field(column));
  if (!value) {
    return FieldError(column,
                      "not an integer: " + QuoteForError(field(column)));
  }
  return *value;
}

}  // namespace stmaker
