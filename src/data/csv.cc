#include "data/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/failpoint.h"
#include "common/io_retry.h"

namespace tablegan {
namespace data {
namespace {

// RFC-4180-style quoting: a field is quoted iff it contains a comma,
// a double quote or a line break; embedded quotes are doubled. Plain
// fields (numbers, simple category names) are written verbatim.
bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void AppendField(std::string* out, const std::string& s) {
  if (!NeedsQuoting(s)) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"') out->push_back('"');
    out->push_back(ch);
  }
  out->push_back('"');
}

// 17 significant digits (max_digits10) make the double -> text ->
// double trip lossless. to_chars(general, 17) is specified as printf
// "%.17g" in the C locale: the bytes this writer has always emitted
// (pinned by csv_robustness_test), so released files stay comparable.
void AppendNumber(std::string* out, double v) {
  char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', e-308
  const std::to_chars_result res = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general,
      std::numeric_limits<double>::max_digits10);
  out->append(buf, res.ptr);
}

enum class SplitResult {
  kOk,
  // The record ends inside a quoted field: the caller should append the
  // next physical line (the field contains a line break) and retry.
  kUnterminatedQuote,
  // A closing quote is followed by something other than a comma or the
  // end of the record.
  kBadQuote,
};

// Quote-aware splitting of one logical CSV record. Unquoted fields are
// taken verbatim; quoted fields may contain commas, doubled quotes and
// line breaks.
SplitResult SplitCsvRecord(const std::string& line,
                           std::vector<std::string>* out) {
  out->clear();
  std::string cur;
  bool in_quotes = false;
  size_t i = 0;
  const size_t n = line.size();
  bool at_field_start = true;
  while (i < n) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < n && line[i + 1] == '"') {  // escaped quote
          cur.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        if (i < n && line[i] != ',') return SplitResult::kBadQuote;
        continue;
      }
      cur.push_back(ch);
      ++i;
      continue;
    }
    if (ch == ',') {
      out->push_back(std::move(cur));
      cur.clear();
      at_field_start = true;
      ++i;
      continue;
    }
    if (ch == '"' && at_field_start) {
      in_quotes = true;
      at_field_start = false;
      ++i;
      continue;
    }
    cur.push_back(ch);
    at_field_start = false;
    ++i;
  }
  if (in_quotes) return SplitResult::kUnterminatedQuote;
  out->push_back(std::move(cur));
  return SplitResult::kOk;
}

// Reads one logical record: a physical line, plus continuation lines
// while a quoted field spans a line break. Strips one trailing '\r' per
// physical line (CRLF input). Returns false at end of input.
Result<bool> ReadRecord(std::istream& in, std::vector<std::string>* cells,
                        int64_t* line_no) {
  std::string line;
  if (TABLEGAN_FAILPOINT("csv.read_record")) in.setstate(std::ios::badbit);
  if (!std::getline(in, line)) {
    // badbit means the stream broke mid-file (I/O error, not end of
    // data); reporting it as a clean EOF would silently truncate the
    // table.
    if (in.bad()) {
      return Status::IOError("read failed after line " +
                             std::to_string(*line_no));
    }
    return false;
  }
  ++*line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  SplitResult result = SplitCsvRecord(line, cells);
  while (result == SplitResult::kUnterminatedQuote) {
    std::string next;
    if (!std::getline(in, next)) {
      return Status::InvalidArgument(
          "unterminated quoted field starting at line " +
          std::to_string(*line_no));
    }
    ++*line_no;
    if (!next.empty() && next.back() == '\r') next.pop_back();
    line.push_back('\n');
    line.append(next);
    result = SplitCsvRecord(line, cells);
  }
  if (result == SplitResult::kBadQuote) {
    return Status::InvalidArgument(
        "malformed quoting (text after closing quote) at line " +
        std::to_string(*line_no));
  }
  return true;
}

// Serializes the table into `out`. The per-row csv.write_row failpoint
// stands in for a failing disk write: once it fires, the call returns
// IOError("write failed: <where>") and the caller discards the text.
// The remaining rows are still range-checked and the site is still
// evaluated once per row, which the failpoint tests count.
Status AppendCsv(const Table& table, bool include_header,
                 const std::string& where, std::string* out) {
  const Schema& schema = table.schema();
  if (include_header) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (c) out->push_back(',');
      AppendField(out, schema.column(c).name);
    }
    out->push_back('\n');
  }
  bool broken = false;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (c) out->push_back(',');
      const ColumnSpec& spec = schema.column(c);
      const double v = table.Get(r, c);
      if (spec.type == ColumnType::kCategorical &&
          !spec.categories.empty()) {
        const int idx = static_cast<int>(std::lround(v));
        if (!std::isfinite(v) || idx < 0 || idx >= spec.num_categories()) {
          // Emitting the raw code would produce a file ReadCsv rejects
          // (it is not a category of this column); fail loudly instead.
          return Status::InvalidArgument(
              "categorical value " + std::to_string(v) +
              " out of range [0, " +
              std::to_string(spec.num_categories()) + ") for column '" +
              spec.name + "' at row " + std::to_string(r));
        }
        AppendField(out, spec.categories[static_cast<size_t>(idx)]);
        continue;
      }
      AppendNumber(out, v);
    }
    out->push_back('\n');
    // Per-row site so after(n)/every(n) triggers can break the write
    // mid-file, not just at the first byte.
    if (TABLEGAN_FAILPOINT("csv.write_row")) broken = true;
  }
  if (broken) return Status::IOError("write failed: " + where);
  return Status::OK();
}

// Parses CSV text from an in-memory stream (the file path is only used
// in error messages). Extracted so file- and string-based readers share
// one parser.
Result<Table> ReadCsvFromStream(const Schema& schema, std::istream& in,
                                const std::string& path) {
  std::vector<std::string> header;
  int64_t line_no = 0;
  TABLEGAN_ASSIGN_OR_RETURN(bool has_header,
                            ReadRecord(in, &header, &line_no));
  if (!has_header) return Status::IOError("empty CSV: " + path);
  if (static_cast<int>(header.size()) != schema.num_columns()) {
    return Status::InvalidArgument("CSV header width mismatch in " + path);
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (header[static_cast<size_t>(c)] != schema.column(c).name) {
      return Status::InvalidArgument("CSV column '" +
                                     header[static_cast<size_t>(c)] +
                                     "' does not match schema");
    }
  }

  Table table(schema);
  std::vector<double> row(static_cast<size_t>(schema.num_columns()));
  std::vector<std::string> cells;
  for (;;) {
    TABLEGAN_ASSIGN_OR_RETURN(bool more, ReadRecord(in, &cells, &line_no));
    if (!more) break;
    if (cells.size() == 1 && cells[0].empty()) continue;  // blank line
    if (static_cast<int>(cells.size()) != schema.num_columns()) {
      return Status::InvalidArgument("bad cell count at line " +
                                     std::to_string(line_no));
    }
    for (int c = 0; c < schema.num_columns(); ++c) {
      const std::string& cell = cells[static_cast<size_t>(c)];
      const ColumnSpec& spec = schema.column(c);
      if (spec.type == ColumnType::kCategorical &&
          !spec.categories.empty()) {
        bool matched = false;
        for (int k = 0; k < spec.num_categories(); ++k) {
          if (spec.categories[static_cast<size_t>(k)] == cell) {
            row[static_cast<size_t>(c)] = k;
            matched = true;
            break;
          }
        }
        // A numeric-looking unknown level must not fall through to the
        // number parser: it would silently become an out-of-range code.
        if (!matched) {
          return Status::InvalidArgument(
              "unknown category '" + cell + "' for column '" + spec.name +
              "' at line " + std::to_string(line_no));
        }
        continue;
      }
      // std::stod throws out_of_range on strtod's ERANGE, which glibc
      // also raises for gradual underflow — rejecting subnormal values
      // WriteCsv itself emits. Parse with strtod directly: accept
      // underflow (the returned value is the correct nearest double),
      // still reject overflow and trailing garbage.
      errno = 0;
      char* cell_end = nullptr;
      const double parsed =
          cell.empty() ? 0.0 : std::strtod(cell.c_str(), &cell_end);
      const bool consumed_all =
          !cell.empty() && cell_end == cell.c_str() + cell.size();
      const bool overflowed =
          errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL);
      if (!consumed_all || overflowed) {
        return Status::InvalidArgument("unparseable cell '" + cell +
                                       "' at line " +
                                       std::to_string(line_no));
      }
      row[static_cast<size_t>(c)] = parsed;
    }
    table.AppendRow(row);
  }
  return table;
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  // Open first (matching the old ofstream order, so csv.open_write
  // fires before any row is serialized), buffer the whole file, then
  // push it to disk through the EINTR-retrying writer.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || TABLEGAN_FAILPOINT("csv.open_write")) {
    if (fd >= 0) ::close(fd);
    return Status::IOError("cannot open for write: " + path);
  }
  std::string text;
  Status serialized = AppendCsv(table, /*include_header=*/true, path, &text);
  if (!serialized.ok()) {
    ::close(fd);
    return serialized;
  }
  Status written = io::WriteFull(fd, text.data(), text.size());
  ::close(fd);
  if (!written.ok()) {
    return Status::IOError(written.message() + ": " + path);
  }
  return Status::OK();
}

Result<std::string> WriteCsvToString(const Table& table,
                                     bool include_header) {
  std::string text;
  TABLEGAN_RETURN_NOT_OK(AppendCsv(table, include_header, "<string>", &text));
  return text;
}

Result<Table> ReadCsv(const Schema& schema, const std::string& path) {
  if (TABLEGAN_FAILPOINT("csv.open_read")) {
    return Status::IOError("cannot open for read: " + path);
  }
  // Whole-file read through the EINTR-safe loop; parsing then runs over
  // the in-memory copy, so a signal can never tear a logical record.
  TABLEGAN_ASSIGN_OR_RETURN(std::string text, io::ReadWholeFile(path));
  std::istringstream in(std::move(text));
  return ReadCsvFromStream(schema, in, path);
}

Result<Table> ReadCsvFromString(const Schema& schema,
                                const std::string& text) {
  std::istringstream in(text);
  return ReadCsvFromStream(schema, in, "<string>");
}

}  // namespace data
}  // namespace tablegan
