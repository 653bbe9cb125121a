// key=value parameter parsing, used by the SQL-ish TRAIN BY ... WITH clause
// and by bench command lines.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace corgipile {

/// Ordered key=value map with typed accessors. Keys are case-sensitive.
class Params {
 public:
  Params() = default;

  /// Parses "k1=v1, k2=v2" (comma- or whitespace-separated). Values may not
  /// contain commas. Empty input is valid; a repeated key is
  /// kInvalidArgument.
  static Result<Params> Parse(const std::string& text);

  void Set(const std::string& key, const std::string& value);
  bool Has(const std::string& key) const;

  /// Typed getters returning `def` when the key is absent; error Status only
  /// when the value is present but malformed.
  Result<std::string> GetString(const std::string& key,
                                const std::string& def = "") const;
  Result<double> GetDouble(const std::string& key, double def) const;
  Result<int64_t> GetInt(const std::string& key, int64_t def) const;
  Result<bool> GetBool(const std::string& key, bool def) const;

  std::vector<std::string> Keys() const;
  std::string ToString() const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace corgipile
