#include "registers/register_file.h"

#include <algorithm>

namespace cil {

RegisterSpecTable::RegisterSpecTable(std::vector<RegisterSpec> specs)
    : specs_(std::move(specs)) {
  ProcessId max_pid = 0;
  for (const auto& s : specs_) {
    CIL_CHECK_MSG(!s.writers.empty(), "register needs at least one writer");
    CIL_CHECK_MSG(!s.readers.empty(), "register needs at least one reader");
    CIL_CHECK_MSG(s.width_bits >= 1 && s.width_bits <= 64,
                  "register width must be in [1,64]");
    CIL_CHECK_MSG(bit_width_u64(s.initial) <= s.width_bits,
                  "initial value exceeds declared width: " + s.name);
    for (const ProcessId p : s.writers) max_pid = std::max(max_pid, p);
    for (const ProcessId p : s.readers) max_pid = std::max(max_pid, p);
  }
  mask_words_ = max_pid / 64 + 1;
  read_mask_.assign(specs_.size() * mask_words_, 0);
  write_mask_.assign(specs_.size() * mask_words_, 0);
  width_mask_.reserve(specs_.size());
  for (std::size_t r = 0; r < specs_.size(); ++r) {
    const auto& s = specs_[r];
    for (const ProcessId p : s.readers)
      if (p >= 0) read_mask_[r * mask_words_ + (p >> 6)] |= 1ULL << (p & 63);
    for (const ProcessId p : s.writers)
      if (p >= 0) write_mask_[r * mask_words_ + (p >> 6)] |= 1ULL << (p & 63);
    width_mask_.push_back(s.width_bits >= 64
                              ? ~Word{0}
                              : (Word{1} << s.width_bits) - 1);
  }
}

namespace {
std::vector<Word> initial_values(const RegisterSpecTable& table) {
  std::vector<Word> values;
  values.reserve(static_cast<std::size_t>(table.size()));
  for (const auto& s : table.specs()) values.push_back(s.initial);
  return values;
}
}  // namespace

RegisterFile::RegisterFile(std::vector<RegisterSpec> specs)
    : RegisterFile(std::make_shared<const RegisterSpecTable>(std::move(specs))) {}

RegisterFile::RegisterFile(std::shared_ptr<const RegisterSpecTable> table)
    : table_(std::move(table)),
      values_(initial_values(*table_)),
      stats_(values_.size()) {
  CIL_EXPECTS(table_ != nullptr);
}

Word RegisterFile::peek(RegisterId r) const {
  check_id(r);
  return values_[r];
}

void RegisterFile::reset() {
  const auto& specs = table_->specs();
  for (std::size_t r = 0; r < values_.size(); ++r) {
    values_[r] = specs[r].initial;
    stats_[r] = RegisterStats{};
  }
  write_version_ = 0;
  fault_hook_ = nullptr;
}

const RegisterStats& RegisterFile::stats(RegisterId r) const {
  check_id(r);
  return stats_[r];
}

int RegisterFile::max_bits_written() const {
  int m = 0;
  for (const auto& s : stats_) m = std::max(m, s.max_bits_written);
  return m;
}

std::int64_t RegisterFile::total_reads() const {
  std::int64_t t = 0;
  for (const auto& s : stats_) t += s.reads;
  return t;
}

std::int64_t RegisterFile::total_writes() const {
  std::int64_t t = 0;
  for (const auto& s : stats_) t += s.writes;
  return t;
}

void RegisterFile::restore(const std::vector<Word>& snap) {
  CIL_EXPECTS(snap.size() == values_.size());
  values_ = snap;
  ++write_version_;
}

}  // namespace cil
