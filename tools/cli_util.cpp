#include "tools/cli_util.h"

#include <cstdio>
#include <stdexcept>

namespace cil::cli {

FlagSet::FlagSet(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positionals_.push_back(a);
      continue;
    }
    Entry e;
    const std::size_t eq = a.find('=');
    if (eq == std::string::npos) {
      e.name = a.substr(2);
    } else {
      e.name = a.substr(2, eq - 2);
      e.value = a.substr(eq + 1);
      e.has_value = true;
    }
    entries_.push_back(std::move(e));
  }
}

FlagSet::Entry* FlagSet::find(const std::string& name) {
  for (Entry& e : entries_)
    if (!e.used && e.name == name) return &e;
  return nullptr;
}

bool FlagSet::take_switch(const std::string& name) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  e->used = true;
  if (e->has_value) {
    std::fprintf(stderr, "--%s takes no value\n", name.c_str());
    failed_ = true;
    return false;
  }
  return true;
}

bool FlagSet::take_value(const std::string& name, std::string& raw) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  e->used = true;
  if (!e->has_value || e->value.empty()) {
    std::fprintf(stderr, "--%s needs a value (--%s=...)\n", name.c_str(),
                 name.c_str());
    failed_ = true;
    return false;
  }
  raw = e->value;
  return true;
}

bool FlagSet::take_string(const std::string& name, std::string& out) {
  std::string raw;
  if (!take_value(name, raw)) return false;
  out = raw;
  return true;
}

namespace {

/// stoll-family wrapper: the whole value must convert, not just a prefix.
template <typename T, typename Fn>
bool convert(const std::string& name, const std::string& raw, T& out, Fn fn,
             bool& failed) {
  try {
    std::size_t pos = 0;
    const auto v = fn(raw, &pos);
    if (pos != raw.size()) throw std::invalid_argument(raw);
    out = static_cast<T>(v);
    return true;
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad value in --%s=%s\n", name.c_str(), raw.c_str());
    failed = true;
    return false;
  }
}

}  // namespace

bool FlagSet::take_int(const std::string& name, std::int64_t& out) {
  std::string raw;
  if (!take_value(name, raw)) return false;
  return convert(name, raw, out,
                 [](const std::string& s, std::size_t* pos) {
                   return std::stoll(s, pos);
                 },
                 failed_);
}

bool FlagSet::take_int(const std::string& name, int& out) {
  std::int64_t v = 0;
  if (!take_int(name, v)) return false;
  out = static_cast<int>(v);
  return true;
}

bool FlagSet::take_uint64(const std::string& name, std::uint64_t& out) {
  std::string raw;
  if (!take_value(name, raw)) return false;
  return convert(name, raw, out,
                 [](const std::string& s, std::size_t* pos) {
                   return std::stoull(s, pos);
                 },
                 failed_);
}

bool FlagSet::take_double(const std::string& name, double& out) {
  std::string raw;
  if (!take_value(name, raw)) return false;
  return convert(name, raw, out,
                 [](const std::string& s, std::size_t* pos) {
                   return std::stod(s, pos);
                 },
                 failed_);
}

std::vector<std::string> FlagSet::take_all(const std::string& name) {
  std::vector<std::string> out;
  std::string v;
  while (take_string(name, v)) out.push_back(v);
  return out;
}

bool FlagSet::finish() {
  for (const Entry& e : entries_) {
    if (e.used) continue;
    std::fprintf(stderr, "unknown flag: --%s\n", e.name.c_str());
    failed_ = true;
  }
  return !failed_;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  if (csv.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    out.push_back(csv.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

}  // namespace cil::cli
