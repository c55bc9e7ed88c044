#include "fault/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <sstream>

#include "util/check.h"
#include "util/rng.h"

namespace cil::fault {

namespace {

// Shortest round-tripping decimal form of a double (std::to_chars without a
// precision argument is exact-round-trip by definition).
std::string fmt_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  CIL_CHECK(res.ec == std::errc{});
  return std::string(buf, res.ptr);
}

[[noreturn]] void bad(const std::string& text, const std::string& why) {
  throw ContractViolation("FaultPlan::parse: " + why + " in \"" + text + "\"");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Parses an integer or double prefix of `s` starting at `pos`; advances pos.
template <typename Num>
Num parse_num(const std::string& s, std::size_t& pos) {
  Num value{};
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  const auto res = std::from_chars(begin, end, value);
  if (res.ec != std::errc{}) bad(s, "malformed number");
  pos += static_cast<std::size_t>(res.ptr - begin);
  return value;
}

// A fault rate at s[pos]; advances pos. serialize() writes only positive
// rates, so any other one is refused: its token, with the burst/depth/
// window it carries, would vanish on the round trip.
double parse_rate(const std::string& s, std::size_t& pos) {
  const double p = parse_num<double>(s, pos);
  if (!(p > 0)) bad(s, "fault rate must be > 0");
  return p;
}

// Expects literal `c` at s[pos]; advances pos.
void expect(const std::string& s, std::size_t& pos, char c) {
  if (pos >= s.size() || s[pos] != c)
    bad(s, std::string("expected '") + c + "'");
  ++pos;
}

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed, int num_processes,
                            int num_crashes, int num_stalls,
                            std::int64_t horizon,
                            std::int64_t max_stall_duration,
                            const RegisterFaultConfig& reg,
                            int num_recoveries,
                            std::int64_t max_recovery_delay) {
  CIL_EXPECTS(num_processes >= 1);
  CIL_EXPECTS(num_crashes >= 0 && num_stalls >= 0 && num_recoveries >= 0);
  CIL_EXPECTS(horizon >= 0 && max_stall_duration >= 1);
  CIL_EXPECTS(max_recovery_delay >= 1);
  FaultPlan plan;
  plan.seed = seed;
  plan.registers = reg;
  // Domain-separate the plan stream from the protocols' own coin streams.
  Rng rng(seed ^ 0xfa0175c4ed01e5ULL);

  // Distinct victims via partial Fisher-Yates; at most n-1 may die.
  num_crashes = std::min(num_crashes, num_processes - 1);
  std::vector<ProcessId> pids(num_processes);
  std::iota(pids.begin(), pids.end(), 0);
  for (int i = 0; i < num_crashes; ++i) {
    const auto j = i + rng.below(pids.size() - i);
    std::swap(pids[i], pids[j]);
    plan.crashes.push_back(
        {pids[i], static_cast<std::int64_t>(rng.below(horizon + 1))});
  }
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.at_step != b.at_step ? a.at_step < b.at_step
                                            : a.pid < b.pid;
            });

  for (int i = 0; i < num_stalls; ++i) {
    StallEvent e;
    e.pid = static_cast<ProcessId>(rng.below(num_processes));
    e.at_step = static_cast<std::int64_t>(rng.below(horizon + 1));
    e.duration = 1 + static_cast<std::int64_t>(rng.below(max_stall_duration));
    plan.stalls.push_back(e);
  }
  std::sort(plan.stalls.begin(), plan.stalls.end(),
            [](const StallEvent& a, const StallEvent& b) {
              return a.at_step != b.at_step ? a.at_step < b.at_step
                                            : a.pid < b.pid;
            });

  // Recoveries restart a prefix of the (already shuffled) crash victims.
  num_recoveries = std::min<int>(num_recoveries, plan.crash_count());
  for (int i = 0; i < num_recoveries; ++i) {
    plan.recoveries.push_back(
        {plan.crashes[static_cast<std::size_t>(i)].pid,
         1 + static_cast<std::int64_t>(rng.below(max_recovery_delay))});
  }
  std::sort(plan.recoveries.begin(), plan.recoveries.end(),
            [](const RecoveryEvent& a, const RecoveryEvent& b) {
              return a.pid < b.pid;
            });
  return plan;
}

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  os << "fp1;seed=" << seed;
  if (!crashes.empty()) {
    os << ";crash=";
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      if (i > 0) os << ',';
      os << crashes[i].pid << '@' << crashes[i].at_step;
    }
  }
  if (!recoveries.empty()) {
    os << ";recover=";
    for (std::size_t i = 0; i < recoveries.size(); ++i) {
      if (i > 0) os << ',';
      os << recoveries[i].pid << '@' << recoveries[i].delay;
    }
  }
  if (!stalls.empty()) {
    os << ";stall=";
    for (std::size_t i = 0; i < stalls.size(); ++i) {
      if (i > 0) os << ',';
      os << stalls[i].pid << '@' << stalls[i].at_step << '+'
         << stalls[i].duration;
    }
  }
  const RegisterFaultConfig& r = registers;
  if (r.any_word_faults()) {
    os << ";reg=";
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ',';
      first = false;
    };
    if (r.flicker_prob > 0) {
      sep();
      os << "fl:" << fmt_double(r.flicker_prob) << 'x' << r.flicker_burst;
    }
    if (r.stale_prob > 0) {
      sep();
      os << "st:" << fmt_double(r.stale_prob) << 'd' << r.stale_depth;
    }
    if (r.delay_prob > 0) {
      sep();
      os << "dw:" << fmt_double(r.delay_prob) << 'w' << r.delay_window;
    }
  }
  if (r.cells.garbage_prob > 0) {
    os << ";cell=gp:" << fmt_double(r.cells.garbage_prob) << 'r'
       << r.cells.garbage_rounds << 's' << r.cells.settle_spins;
  }
  const MessageFaultConfig& m = messages;
  if (m.any()) {
    os << ";msg=";
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ',';
      first = false;
    };
    if (m.drop_prob > 0) {
      sep();
      os << "dr:" << fmt_double(m.drop_prob);
    }
    if (m.dup_prob > 0) {
      sep();
      os << "du:" << fmt_double(m.dup_prob);
    }
    if (m.delay_prob > 0) {
      sep();
      os << "de:" << fmt_double(m.delay_prob) << 'w' << m.delay_max;
    }
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& text) {
  const auto sections = split(text, ';');
  if (sections.empty() || sections[0] != "fp1")
    bad(text, "missing fp1 header");

  FaultPlan plan;
  for (std::size_t i = 1; i < sections.size(); ++i) {
    const std::string& sec = sections[i];
    const std::size_t eq = sec.find('=');
    if (eq == std::string::npos) bad(text, "section without '='");
    const std::string key = sec.substr(0, eq);
    const std::string val = sec.substr(eq + 1);

    if (key == "seed") {
      std::size_t pos = 0;
      plan.seed = parse_num<std::uint64_t>(val, pos);
      if (pos != val.size()) bad(text, "trailing characters after seed");
    } else if (key == "crash" || key == "recover") {  // pid@step, pid@delay
      for (const std::string& item : split(val, ',')) {
        std::size_t pos = 0;
        const auto pid = parse_num<ProcessId>(item, pos);
        expect(item, pos, '@');
        const auto at = parse_num<std::int64_t>(item, pos);
        if (pos != item.size()) bad(text, "malformed " + key + " event");
        if (key == "crash") {
          plan.crashes.push_back({pid, at});
        } else {
          plan.recoveries.push_back({pid, at});
        }
      }
    } else if (key == "stall") {
      for (const std::string& item : split(val, ',')) {
        std::size_t pos = 0;
        StallEvent e;
        e.pid = parse_num<ProcessId>(item, pos);
        expect(item, pos, '@');
        e.at_step = parse_num<std::int64_t>(item, pos);
        expect(item, pos, '+');
        e.duration = parse_num<std::int64_t>(item, pos);
        if (pos != item.size()) bad(text, "malformed stall event");
        plan.stalls.push_back(e);
      }
    } else if (key == "reg") {
      for (const std::string& item : split(val, ',')) {
        if (item.size() < 4 || item[2] != ':') bad(text, "malformed reg token");
        const std::string tag = item.substr(0, 2);
        std::size_t pos = 3;
        const double prob = parse_rate(item, pos);
        if (tag == "fl") {
          plan.registers.flicker_prob = prob;
          expect(item, pos, 'x');
          plan.registers.flicker_burst = parse_num<int>(item, pos);
        } else if (tag == "st") {
          plan.registers.stale_prob = prob;
          expect(item, pos, 'd');
          plan.registers.stale_depth = parse_num<int>(item, pos);
        } else if (tag == "dw") {
          plan.registers.delay_prob = prob;
          expect(item, pos, 'w');
          plan.registers.delay_window = parse_num<int>(item, pos);
        } else {
          bad(text, "unknown reg fault tag '" + tag + "'");
        }
        if (pos != item.size()) bad(text, "malformed reg token");
      }
    } else if (key == "msg") {
      for (const std::string& item : split(val, ',')) {
        if (item.size() < 4 || item[2] != ':') bad(text, "malformed msg token");
        const std::string tag = item.substr(0, 2);
        std::size_t pos = 3;
        const double prob = parse_rate(item, pos);
        if (tag == "dr") {
          plan.messages.drop_prob = prob;
        } else if (tag == "du") {
          plan.messages.dup_prob = prob;
        } else if (tag == "de") {
          plan.messages.delay_prob = prob;
          expect(item, pos, 'w');
          plan.messages.delay_max = parse_num<int>(item, pos);
        } else {
          bad(text, "unknown msg fault tag '" + tag + "'");
        }
        if (pos != item.size()) bad(text, "malformed msg token");
      }
    } else if (key == "cell") {
      if (val.rfind("gp:", 0) != 0) bad(text, "malformed cell section");
      std::size_t pos = 3;
      plan.registers.cells.garbage_prob = parse_rate(val, pos);
      expect(val, pos, 'r');
      plan.registers.cells.garbage_rounds = parse_num<int>(val, pos);
      expect(val, pos, 's');
      plan.registers.cells.settle_spins = parse_num<int>(val, pos);
      if (pos != val.size()) bad(text, "malformed cell section");
    } else {
      bad(text, "unknown section '" + key + "'");
    }
  }
  return plan;
}

void FaultPlan::validate(int num_processes) const {
  CIL_EXPECTS(num_processes >= 1);
  std::vector<ProcessId> victims;
  for (const CrashEvent& e : crashes) {
    CIL_CHECK_MSG(e.pid >= 0 && e.pid < num_processes,
                  "crash pid out of range");
    CIL_CHECK_MSG(e.at_step >= 0, "crash step must be >= 0");
    victims.push_back(e.pid);
  }
  std::sort(victims.begin(), victims.end());
  CIL_CHECK_MSG(
      std::adjacent_find(victims.begin(), victims.end()) == victims.end(),
      "a processor can crash only once");
  CIL_CHECK_MSG(static_cast<int>(victims.size()) <= num_processes - 1,
                "at most n-1 processors may crash (survivor rule)");
  for (const StallEvent& e : stalls) {
    CIL_CHECK_MSG(e.pid >= 0 && e.pid < num_processes,
                  "stall pid out of range");
    CIL_CHECK_MSG(e.at_step >= 0 && e.duration >= 0, "stall must be bounded");
  }
  std::vector<ProcessId> recoverers;
  for (const RecoveryEvent& e : recoveries) {
    CIL_CHECK_MSG(e.pid >= 0 && e.pid < num_processes,
                  "recover pid out of range");
    CIL_CHECK_MSG(e.delay >= 1, "recovery delay must be >= 1");
    CIL_CHECK_MSG(std::find(victims.begin(), victims.end(), e.pid) !=
                      victims.end(),
                  "a recovery needs a matching crash event");
    recoverers.push_back(e.pid);
  }
  std::sort(recoverers.begin(), recoverers.end());
  CIL_CHECK_MSG(std::adjacent_find(recoverers.begin(), recoverers.end()) ==
                    recoverers.end(),
                "a processor can recover only once");
  const RegisterFaultConfig& r = registers;
  const auto is_prob = [](double p) { return p >= 0.0 && p <= 1.0; };
  CIL_CHECK_MSG(is_prob(r.flicker_prob) && is_prob(r.stale_prob) &&
                    is_prob(r.delay_prob) && is_prob(r.cells.garbage_prob),
                "fault rates must be probabilities");
  CIL_CHECK_MSG(r.flicker_burst >= 1 && r.stale_depth >= 1 &&
                    r.delay_window >= 1 && r.cells.garbage_rounds >= 1,
                "fault magnitudes must be >= 1");
  CIL_CHECK_MSG(r.cells.settle_spins >= 0, "settle_spins must be >= 0");
  const MessageFaultConfig& m = messages;
  CIL_CHECK_MSG(is_prob(m.drop_prob) && is_prob(m.dup_prob) &&
                    is_prob(m.delay_prob),
                "message fault rates must be probabilities");
  CIL_CHECK_MSG(m.delay_max >= 1, "message delay_max must be >= 1");
}

}  // namespace cil::fault
