#ifndef FTA_OBS_JSON_H_
#define FTA_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fta {
namespace obs {

/// Streaming JSON writer with automatic comma placement and string
/// escaping. The observability exporters (Chrome traces, metric snapshots,
/// run reports) all emit through this one writer so the quoting and number
/// formatting rules live in a single place.
///
/// Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("entries"); w.UInt(catalog.num_entries());
///   w.Key("spans"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   std::string text = w.str();
///
/// Doubles are printed with round-trip precision (%.17g trimmed); NaN and
/// infinities — which JSON cannot represent — are emitted as null.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Object key; must be followed by exactly one value (or container).
  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// The document so far. Valid once every container has been closed.
  const std::string& str() const { return out_; }

  /// Escapes `value` per JSON string rules (without surrounding quotes).
  static std::string Escape(std::string_view value);

 private:
  /// Emits the pending comma/nothing before a value or key.
  void Separate();

  std::string out_;
  /// One entry per open container: the number of values emitted so far.
  std::vector<size_t> counts_;
  bool after_key_ = false;
};

}  // namespace obs
}  // namespace fta

#endif  // FTA_OBS_JSON_H_
