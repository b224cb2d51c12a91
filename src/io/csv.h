#ifndef FTA_IO_CSV_H_
#define FTA_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fta {

/// A parsed CSV document: one row per record, one string per field.
struct CsvDocument {
  std::vector<std::vector<std::string>> rows;
};

/// Parses CSV text. Supports quoted fields with embedded delimiters,
/// doubled-quote escapes, and both \n and \r\n line endings. Empty lines
/// are skipped; lines starting with '#' (outside quotes) are comments.
StatusOr<CsvDocument> ParseCsv(const std::string& text, char delim = ',');

/// Serializes rows to CSV text, quoting fields that need it.
std::string ToCsv(const std::vector<std::vector<std::string>>& rows,
                  char delim = ',');

/// Reads a whole file (the Load* functions' one read path).
StatusOr<std::string> ReadTextFile(const std::string& path);

/// Writes `text` to a file, replacing its contents (the Save* functions'
/// and WriteInstanceSvg's one write path).
Status WriteTextFile(const std::string& path, std::string_view text);

}  // namespace fta

#endif  // FTA_IO_CSV_H_
