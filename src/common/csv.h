#ifndef STMAKER_COMMON_CSV_H_
#define STMAKER_COMMON_CSV_H_

/// \file
/// CSV formatting, the streaming table reader, and the writers shared by
/// all persistence code.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace stmaker {

/// Renders one CSV row (trailing newline included). Fields containing
/// commas, quotes, or newlines are quoted per RFC 4180.
std::string FormatCsvRow(const std::vector<std::string>& fields);

/// \brief Minimal CSV writer used to persist generated datasets (trajectory
/// corpora, landmark tables) and benchmark series. Fields containing commas,
/// quotes, or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing, truncating any existing file.
  static Result<CsvWriter> Open(const std::string& path);

  CsvWriter(CsvWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  CsvWriter& operator=(CsvWriter&& other) noexcept {
    if (this != &other) {
      if (file_ != nullptr) std::fclose(file_);
      file_ = other.file_;
      other.file_ = nullptr;
    }
    return *this;
  }
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;
  ~CsvWriter();

  /// Writes one row; flushes on Close/destruction.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Flushes and closes the file; further writes fail.
  Status Close();

 private:
  explicit CsvWriter(std::FILE* file) : file_(file) {}

  std::FILE* file_;
};

/// \brief In-memory CSV serializer: same quoting as CsvWriter, but the
/// output accumulates in a string. Model persistence builds each file's
/// full content with this so it can be checksummed and written atomically.
class CsvBuilder {
 public:
  void Row(const std::vector<std::string>& fields) {
    text_ += FormatCsvRow(fields);
  }
  const std::string& str() const { return text_; }
  std::string TakeString() { return std::move(text_); }

 private:
  std::string text_;
};

/// \brief Whole-field number parsing for the dataset CSVs.
///
/// The accepted language is exactly that of `strtod` (doubles) or
/// `strtoll` base 10 (integers) in the C locale, over the whole field:
/// leading blanks, `+`, hex floats, `inf`/`nan`, and overflow to ±inf (or
/// saturation, for integers) are accepted; trailing characters are not.
/// `std::from_chars` parses the common spellings without a copy; a field
/// it does not consume whole, or that yields a NaN (whose payload strtod
/// defines), is re-parsed by strtod/strtoll on a NUL-terminated copy, so
/// every value is bit-identical to the strtod one. Returns nullopt when the
/// field is not a number.
std::optional<double> ParseDoubleField(std::string_view field);
/// The integer counterpart of ParseDoubleField.
std::optional<int64_t> ParseIntField(std::string_view field);

/// \brief Streaming reader for a schema-checked, rectangular CSV table.
///
/// Open() reads the file whole and checks its first record against
/// `header`; Next() then walks one data record at a time over the file
/// buffer, exposing each field as a `std::string_view`. Grammar (RFC 4180
/// quoting): a `"` anywhere in a field opens a quoted run in which `,` and
/// newlines are literal and `""` is one quote; a CR outside quotes is
/// dropped (so CRLF files read like LF ones); the final newline is
/// optional. A field is copied — into one scratch buffer reused per row —
/// only when it holds a quote or a CR; every other field is a view into
/// the file buffer, valid until the next call to Next().
///
/// Every error is kInvalidArgument and names the context (the path) and
/// the 1-based record number, the header being row 1: a missing or wrong
/// header, a row whose width differs from the header's, and an
/// unterminated quote. Double()/Int() and FieldError() add the column name
/// for the readers' own checks.
class CsvTableReader {
 public:
  /// Reads `path` (failpoints: the ReadFileToString ones) and checks its
  /// header; `path` is the context of every error.
  static Result<CsvTableReader> Open(const std::string& path,
                                     std::vector<std::string> header);

  /// Reads in-memory `text`, checking its header; errors name `context`.
  static Result<CsvTableReader> FromText(std::string text,
                                         std::vector<std::string> header,
                                         std::string context);

  /// Advances to the next data row: true when one is ready, false at the
  /// end of the table.
  Result<bool> Next();

  /// Field `column` (< header width) of the current row.
  std::string_view field(size_t column) const {
    const Span& s = spans_[column];
    return {(s.in_scratch ? scratch_.data() : text_.data()) + s.begin,
            s.size};
  }

  /// Field `column` parsed by ParseDoubleField / ParseIntField; a
  /// non-number fails with FieldError.
  Result<double> Double(size_t column) const;
  Result<int64_t> Int(size_t column) const;

  /// kInvalidArgument "<context>: row <n>, column '<name>': <what>".
  Status FieldError(size_t column, const std::string& what) const;
  /// kInvalidArgument "<context>: row <n>: <what>", for a check that spans
  /// several columns.
  Status RowError(const std::string& what) const;

 private:
  /// One field of the current row: a range of text_, or of scratch_ when
  /// the field had to be unquoted.
  struct Span {
    size_t begin = 0;
    size_t size = 0;
    bool in_scratch = false;
  };

  CsvTableReader(std::string text, std::vector<std::string> header,
                 std::string context)
      : text_(std::move(text)),
        header_(std::move(header)),
        context_(std::move(context)) {}

  /// Scans the next record into spans_; false at the end of the text.
  Result<bool> ScanRecord();
  /// Scans one field starting at pos_, leaving pos_ on its terminator;
  /// false on an unterminated quote.
  bool ScanField();
  Status CheckHeader();

  std::string text_;
  std::vector<std::string> header_;
  std::string context_;
  size_t pos_ = 0;
  size_t row_ = 0;
  std::vector<Span> spans_;
  std::string scratch_;
};

}  // namespace stmaker

#endif  // STMAKER_COMMON_CSV_H_
