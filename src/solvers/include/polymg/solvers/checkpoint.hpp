// Pool-backed, checksummed solver-state checkpoints.
//
// A Checkpoint is a set of numbered payload slots (flat double arrays —
// the iterate, residual-history tails) plus a small scalar metadata
// block (cycle index, ladder rung, monitor state). Slot storage comes
// from a runtime::MemoryPool, so a solve that checkpoints
// on a cadence performs no malloc traffic after the first capture: the
// steady-state zero-allocation invariant holds between checkpoints and,
// once slot sizes are stable, across them.
//
// Every slot carries an FNV-1a checksum computed at capture. restore()
// re-verifies it, so a payload corrupted in storage (fault site
// `checkpoint.corrupt`, or a real bad DIMM) is detected instead of being
// smoothed into the iterate — the caller then falls back to a stronger
// remedy (guarded_solve walks its degradation ladder).
//
// Capture protocol: begin() → save()/set_meta() per slot → commit().
// A checkpoint is only valid() after commit(); a crash mid-capture
// leaves the previous generation invalid rather than half-written.
#pragma once

#include <cstdint>
#include <vector>

#include "polymg/poly/interval.hpp"

namespace polymg::runtime {
class MemoryPool;
}
namespace polymg::obs {
class Counter;
}

namespace polymg::solvers {

using poly::index_t;

/// FNV-1a over `n` doubles, one 8-byte lane per step (the slot
/// checksum; bit-flips anywhere in the payload change it).
std::uint64_t payload_checksum(const double* p, std::size_t n);

class Checkpoint {
public:
  /// `pool` must outlive the checkpoint; slot buffers are drawn from it
  /// and released back by release() / the destructor.
  explicit Checkpoint(runtime::MemoryPool& pool);
  ~Checkpoint();
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Start a new snapshot generation. Invalidates the checkpoint until
  /// commit(); slot buffers are retained for reuse. `next_cycle` is the
  /// cycle index execution resumes from after a restore.
  void begin(int next_cycle, int rung = 0);

  /// Capture `doubles` values into `slot` (0-based; slots may be saved in
  /// any order but the set must be dense by commit time). Reuses the
  /// slot's pooled buffer when it is large enough.
  void save(std::size_t slot, const double* p, index_t doubles);

  /// Small scalar sidecar (monitor state, residual tails). Indexed
  /// free-form by the caller; grows on first use, reused afterwards.
  void set_meta(std::size_t i, double v);
  double meta(std::size_t i) const;

  /// Seal the generation. Emits a CheckpointWrite trace event and bumps
  /// resil.checkpoint_writes. Fault site `checkpoint.corrupt`: when armed,
  /// one committed payload byte is flipped after checksumming, so the
  /// corruption is silent until restore() verifies.
  void commit();

  bool valid() const { return valid_; }
  int next_cycle() const { return next_cycle_; }
  int rung() const { return rung_; }
  std::size_t slots() const { return entries_.size(); }

  /// Copy `slot`'s payload into `dst` (size must match the capture).
  /// Verifies the checksum first; on mismatch returns false, leaves `dst`
  /// untouched, and bumps resil.restore_failures. A clean restore emits a
  /// CheckpointRestore trace event and bumps resil.checkpoint_restores.
  bool restore(std::size_t slot, double* dst, index_t doubles) const;

  /// Drop the snapshot and hand every slot buffer back to the pool.
  void release();

private:
  struct Slot {
    double* data = nullptr;  ///< pool-owned
    index_t capacity = 0;
    index_t used = 0;
    std::uint64_t checksum = 0;
  };

  runtime::MemoryPool& pool_;
  std::vector<Slot> entries_;
  std::vector<double> meta_;
  bool valid_ = false;
  int next_cycle_ = -1;
  int rung_ = 0;

  obs::Counter* ctr_writes_ = nullptr;            // resil.checkpoint_writes
  obs::Counter* ctr_restores_ = nullptr;          // resil.checkpoint_restores
  obs::Counter* ctr_restore_failures_ = nullptr;  // resil.restore_failures
};

}  // namespace polymg::solvers
