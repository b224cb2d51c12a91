#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/logging.h"

namespace fta {
namespace obs {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!counts_.empty()) {
    if (counts_.back() > 0) out_ += ',';
    ++counts_.back();
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  counts_.push_back(0);
}

void JsonWriter::EndObject() {
  FTA_DCHECK(!counts_.empty());
  counts_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  counts_.push_back(0);
}

void JsonWriter::EndArray() {
  FTA_DCHECK(!counts_.empty());
  counts_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
}

void JsonWriter::UInt(uint64_t value) {
  Separate();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer the shortest representation that still round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof(candidate), "%.*g", precision, value);
    if (std::strtod(candidate, nullptr) == value) {
      out_ += candidate;
      return;
    }
  }
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

std::string JsonWriter::Escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace fta
