#include "polymg/solvers/checkpoint.hpp"

#include <cstring>

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/runtime/pool.hpp"

namespace polymg::solvers {

namespace {

/// FNV-1a over 8-byte words, four interleaved lanes folded together at
/// the end. A single FNV chain is latency-bound on the multiply (~4
/// cycles per word); four independent chains keep the digest close to
/// copy speed, which matters because it sits on the per-checkpoint
/// critical path. Any single-bit flip changes its lane's chain and so
/// the folded digest. When `dst` is non-null each word is also stored
/// there — the fused snapshot-and-digest used by Checkpoint::save.
std::uint64_t digest_words(double* dst, const double* src, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                        0x9ce484222325cbf2ULL, 0x2325cbf29ce48422ULL};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t w;
    std::memcpy(&w, src + i, sizeof(w));
    h[i & 3] = (h[i & 3] ^ w) * kPrime;
    if (dst != nullptr) std::memcpy(dst + i, &w, sizeof(w));
  }
  std::uint64_t r = 0xcbf29ce484222325ULL;
  for (std::uint64_t lane : h) r = (r ^ lane) * kPrime;
  return r;
}

}  // namespace

std::uint64_t payload_checksum(const double* p, std::size_t n) {
  return digest_words(nullptr, p, n);
}

Checkpoint::Checkpoint(runtime::MemoryPool& pool) : pool_(pool) {
  auto& m = obs::Metrics::instance();
  ctr_writes_ = &m.counter("resil.checkpoint_writes");
  ctr_restores_ = &m.counter("resil.checkpoint_restores");
  ctr_restore_failures_ = &m.counter("resil.restore_failures");
}

Checkpoint::~Checkpoint() { release(); }

void Checkpoint::begin(int next_cycle, int rung) {
  PMG_CHECK(next_cycle >= 0, "checkpoint cycle must be >= 0");
  valid_ = false;
  next_cycle_ = next_cycle;
  rung_ = rung;
}

void Checkpoint::save(std::size_t slot, const double* p, index_t doubles) {
  PMG_CHECK(doubles >= 0, "negative checkpoint slot size");
  PMG_CHECK(slot <= entries_.size(),
            "checkpoint slots must be appended densely (slot "
                << slot << " after " << entries_.size() << ")");
  if (slot == entries_.size()) entries_.push_back(Slot{});
  Slot& s = entries_[slot];
  if (s.capacity < doubles) {
    if (s.data != nullptr) pool_.pool_deallocate(s.data);
    s.data = pool_.pool_allocate(doubles);
    s.capacity = doubles;
  }
  // Fused snapshot + digest: one pass reads each source word, folds it
  // into the lane digests and stores it — a separate checksum pass
  // would nearly double the capture cost (restore keeps the two-pass
  // shape; it is the rare path).
  s.used = doubles;
  s.checksum = digest_words(s.data, p, static_cast<std::size_t>(doubles));
}

void Checkpoint::set_meta(std::size_t i, double v) {
  if (i >= meta_.size()) meta_.resize(i + 1, 0.0);
  meta_[i] = v;
}

double Checkpoint::meta(std::size_t i) const {
  PMG_CHECK(i < meta_.size(), "checkpoint meta index " << i << " unset");
  return meta_[i];
}

void Checkpoint::commit() {
  // Storage corruption between capture and restore (fault site
  // `checkpoint.corrupt`): flip one payload byte *after* the checksum was
  // computed — silent until restore() verifies.
  if (!entries_.empty() && entries_[0].used > 0 &&
      fault::should_fail(fault::kCheckpointCorrupt)) {
    obs::Metrics::instance().counter("fault.checkpoint_corrupt").add(1);
    unsigned char* b = reinterpret_cast<unsigned char*>(entries_[0].data);
    b[static_cast<std::size_t>(entries_[0].used) * sizeof(double) / 2] ^=
        0x10;
    PMG_TRACE_INSTANT(FaultInjected, -1, -1, /*site=*/3, 0.0);
  }
  valid_ = true;
  ctr_writes_->add(1);
  double bytes = 0.0;
  for (const Slot& s : entries_) {
    bytes += static_cast<double>(s.used) * sizeof(double);
  }
  PMG_TRACE_INSTANT(CheckpointWrite, -1, -1, next_cycle_, bytes);
}

bool Checkpoint::restore(std::size_t slot, double* dst,
                         index_t doubles) const {
  PMG_CHECK(valid_, "restore from an uncommitted checkpoint");
  PMG_CHECK(slot < entries_.size(), "checkpoint slot " << slot << " unset");
  const Slot& s = entries_[slot];
  PMG_CHECK(doubles == s.used, "checkpoint slot " << slot << " holds "
                                                  << s.used << " doubles, "
                                                  << doubles << " requested");
  if (payload_checksum(s.data, static_cast<std::size_t>(s.used)) !=
      s.checksum) {
    ctr_restore_failures_->add(1);
    PMG_TRACE_INSTANT(CheckpointRestore, -1, -1, next_cycle_, 0.0);
    return false;
  }
  std::memcpy(dst, s.data, static_cast<std::size_t>(s.used) * sizeof(double));
  ctr_restores_->add(1);
  PMG_TRACE_INSTANT(CheckpointRestore, -1, -1, next_cycle_, 1.0);
  return true;
}

void Checkpoint::release() {
  for (Slot& s : entries_) {
    if (s.data != nullptr) pool_.pool_deallocate(s.data);
  }
  entries_.clear();
  meta_.clear();
  valid_ = false;
  next_cycle_ = -1;
}

}  // namespace polymg::solvers
