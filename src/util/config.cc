#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace corgipile {

namespace {
std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}
}  // namespace

Result<Params> Params::Parse(const std::string& text) {
  Params p;
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, ',')) {
    token = Trim(token);
    if (token.empty()) continue;
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected key=value, got '" + token + "'");
    }
    std::string key = Trim(token.substr(0, eq));
    std::string value = Trim(token.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("empty key in '" + token + "'");
    }
    if (p.Has(key)) {
      return Status::InvalidArgument("duplicate key '" + key + "'");
    }
    p.Set(key, value);
  }
  return p;
}

void Params::Set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool Params::Has(const std::string& key) const { return kv_.count(key) > 0; }

Result<std::string> Params::GetString(const std::string& key,
                                      const std::string& def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

Result<double> Params::GetDouble(const std::string& key, double def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("param '" + key + "' is not a number: '" +
                                   it->second + "'");
  }
  return v;
}

Result<int64_t> Params::GetInt(const std::string& key, int64_t def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("param '" + key + "' is not an integer: '" +
                                   it->second + "'");
  }
  return static_cast<int64_t>(v);
}

Result<bool> Params::GetBool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("param '" + key + "' is not a bool: '" +
                                 it->second + "'");
}

std::vector<std::string> Params::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(kv_.size());
  for (const auto& [k, _] : kv_) keys.push_back(k);
  return keys;
}

std::string Params::ToString() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    if (!out.empty()) out += ", ";
    out += k + "=" + v;
  }
  return out;
}

}  // namespace corgipile
