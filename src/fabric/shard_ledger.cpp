#include "fabric/shard_ledger.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cil::fabric {

double backoff_seconds(double initial_seconds, double max_seconds,
                       int attempt) {
  return std::min(max_seconds, std::ldexp(initial_seconds, attempt));
}

ShardLedger::ShardLedger(const std::vector<ShardTask>& tasks,
                         const std::vector<int>& committed, int retry_budget,
                         double backoff_initial_seconds,
                         double backoff_max_seconds)
    : retry_budget_(retry_budget),
      backoff_initial_seconds_(backoff_initial_seconds),
      backoff_max_seconds_(backoff_max_seconds) {
  CIL_EXPECTS(retry_budget >= 0);
  for (const ShardTask& task : tasks) {
    Slot& s = slots_[task.index];
    s.task = task;
    s.outcome.index = task.index;
  }
  CIL_EXPECTS(slots_.size() == tasks.size());  // indexes are unique
  open_ = slots_.size();
  for (const int index : committed) {
    const auto it = slots_.find(index);
    if (it == slots_.end() || it->second.state == State::kDone) continue;
    it->second.state = State::kDone;
    it->second.outcome.resumed = true;
    --open_;
  }
}

ShardLedger::Slot& ShardLedger::in_flight(int index) {
  const auto it = slots_.find(index);
  CIL_EXPECTS(it != slots_.end() && it->second.state == State::kInFlight);
  return it->second;
}

ShardLease ShardLedger::hand_out(Slot& s) {
  if (s.state == State::kExhausted) ++open_;
  s.state = State::kInFlight;
  return {s.task, s.outcome.attempts++};
}

std::optional<ShardLease> ShardLedger::lease(Clock::time_point now) {
  for (auto& [index, s] : slots_)
    if (s.state == State::kPending && s.ready_at <= now) return hand_out(s);
  return std::nullopt;
}

std::optional<ShardLease> ShardLedger::lease_local(bool take_pending) {
  for (auto& [index, s] : slots_)
    if (s.state == State::kExhausted ||
        (take_pending && s.state == State::kPending))
      return hand_out(s);
  return std::nullopt;
}

bool ShardLedger::succeed(int index) {
  const auto it = slots_.find(index);
  if (it != slots_.end() && it->second.state == State::kDone) return false;
  Slot& s = in_flight(index);
  s.state = State::kDone;
  --open_;
  return true;
}

bool ShardLedger::fail(int index, const std::string& reason,
                       Clock::time_point now) {
  Slot& s = in_flight(index);
  s.outcome.last_error = reason;
  const int failed_attempt = s.outcome.attempts - 1;
  if (failed_attempt >= retry_budget_) {
    s.state = State::kExhausted;
    --open_;
    return false;
  }
  ++retries_;
  s.state = State::kPending;
  s.ready_at = now + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(backoff_seconds(
                             backoff_initial_seconds_, backoff_max_seconds_,
                             failed_attempt)));
  return true;
}

SweepOutcome ShardLedger::outcome() const {
  SweepOutcome out;
  out.retries = retries_;
  for (const auto& [index, s] : slots_) {
    out.shards.push_back(s.outcome);
    out.shards.back().completed = s.state == State::kDone;
    if (s.state != State::kDone) out.incomplete_shards.push_back(index);
  }
  return out;
}

}  // namespace cil::fabric
