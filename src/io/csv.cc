#include "io/csv.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace fta {

StatusOr<CsvDocument> ParseCsv(const std::string& text, char delim) {
  CsvDocument doc;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;
  bool line_is_comment = false;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  const auto end_row = [&] {
    if (row_has_content && !line_is_comment) {
      end_field();
      doc.rows.push_back(std::move(row));
    }
    row.clear();
    field.clear();
    row_has_content = false;
    line_is_comment = false;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;  // doubled quote escape
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      row_has_content = true;
    } else if (c == delim) {
      end_field();
      row_has_content = true;
    } else if (c == '\n') {
      end_row();
    } else if (c == '\r') {
      // swallow; \r\n handled by the following \n, bare \r ends the row
      if (i + 1 >= text.size() || text[i + 1] != '\n') end_row();
    } else {
      if (!row_has_content && c == '#') line_is_comment = true;
      if (!std::isspace(static_cast<unsigned char>(c))) row_has_content = true;
      field.push_back(c);
    }
  }
  if (in_quotes) return Status::ParseError("unterminated quoted field");
  end_row();  // final row without trailing newline
  return doc;
}

std::string ToCsv(const std::vector<std::vector<std::string>>& rows,
                  char delim) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(delim);
      const std::string& f = row[i];
      const bool needs_quotes =
          f.find(delim) != std::string::npos ||
          f.find('"') != std::string::npos ||
          f.find('\n') != std::string::npos || StartsWith(f, "#");
      if (needs_quotes) {
        out.push_back('"');
        for (char c : f) {
          if (c == '"') out.push_back('"');
          out.push_back(c);
        }
        out.push_back('"');
      } else {
        out += f;
      }
    }
    out.push_back('\n');
  }
  return out;
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status WriteTextFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << text;
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace fta
