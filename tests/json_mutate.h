// Structural JSON mutations for the seeded in-repo decoder fuzzers
// (ShardSummaryFuzz, JobSpecFuzz): pick a node of a valid document by
// preorder index and replace it with a wrong type, a boundary number, a
// hostile string, a reshaped array, or the object with one key dropped or
// renamed. Deterministic in the caller's generator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "obs/json.h"

namespace cil::testing_json {

using obs::Json;

inline std::size_t count_nodes(const Json& j) {
  std::size_t n = 1;
  if (j.is_array())
    for (const Json& e : j.as_array()) n += count_nodes(e);
  if (j.is_object())
    for (const auto& [key, value] : j.as_object()) n += count_nodes(value);
  return n;
}

/// `j` rebuilt with its `target`-th node (preorder) replaced by f(node).
template <class F>
Json rebuild(const Json& j, std::size_t& index, std::size_t target, F& f) {
  if (index++ == target) return f(j);
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& e : j.as_array())
      out.push_back(rebuild(e, index, target, f));
    return out;
  }
  if (j.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.as_object())
      out[key] = rebuild(value, index, target, f);
    return out;
  }
  return j;
}

/// One mutation of `node`. `domain` adds the decoder's own vocabulary
/// (artifact tags, enum names) to the strings a string node may become.
inline Json mutate_node(const Json& node, std::mt19937_64& gen,
                        const std::vector<std::string>& domain) {
  const auto pick = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };
  const std::vector<Json> wrong_types = {
      Json(), Json(true), Json("x"), Json::array(), Json::object(),
      Json(-1), Json(0), Json(0.5), Json(1e300), Json(0x1p63), Json(-0x1p63),
      Json(9007199254740993.0)};
  if (pick(4) == 0) return wrong_types[pick(wrong_types.size())];
  if (node.is_number()) {
    const double v = node.as_number();
    const std::vector<double> numbers = {
        -1, 0, 1, v + 1, v - 1, -v, 0x1p62, 0x1p63, 1e19, 0x1p53 + 1, 0.5};
    return Json(numbers[pick(numbers.size())]);
  }
  if (node.is_string()) {
    const std::string& v = node.as_string();
    std::vector<std::string> strings = {
        "", "-1", "01", "+1", "18446744073709551615", "18446744073709551616",
        "12a", "ffffffffffffffff", "FFFFFFFFFFFFFFFF", "0123456789abcde",
        "0123456789abcdef0", v.substr(0, v.size() / 2), v + "0"};
    strings.insert(strings.end(), domain.begin(), domain.end());
    return Json(strings[pick(strings.size())]);
  }
  if (node.is_array()) {
    Json::Array a = node.as_array();
    switch (pick(6)) {
      case 0:
        if (!a.empty()) a.erase(a.begin() + static_cast<long>(pick(a.size())));
        break;
      case 1:
        if (!a.empty()) a.push_back(a[pick(a.size())]);
        break;
      case 2:
        if (a.size() >= 2) std::swap(a[pick(a.size())], a[pick(a.size())]);
        break;
      case 3:
        std::reverse(a.begin(), a.end());
        break;
      case 4: {
        Json b = Json::array();
        b.push_back(Json(static_cast<std::int64_t>(pick(8))));
        b.push_back(Json(0x1p62));
        a.push_back(b);
        a.push_back(b);
        break;
      }
      default:
        a.clear();
    }
    Json out = Json::array();
    for (Json& e : a) out.push_back(std::move(e));
    return out;
  }
  if (node.is_object() && node.size() > 0) {
    const auto& obj = node.as_object();
    auto victim = obj.begin();
    std::advance(victim, static_cast<long>(pick(obj.size())));
    const std::vector<std::string> keys = {"01", "+1", "-1", "abc",
                                           "99999999999", "7", ""};
    const bool rename = pick(2) == 0;
    Json out = Json::object();
    for (const auto& [key, value] : obj) {
      if (key != victim->first) out[key] = value;
      else if (rename) out[keys[pick(keys.size())]] = value;
    }
    return out;  // the victim key dropped or renamed
  }
  return wrong_types[pick(wrong_types.size())];
}

}  // namespace cil::testing_json
