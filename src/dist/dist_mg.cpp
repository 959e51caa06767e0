#include "polymg/dist/dist_mg.hpp"

#include <memory>
#include <string>

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/runtime/pool.hpp"
#include "polymg/solvers/checkpoint.hpp"

namespace polymg::dist {

using poly::Box;
using poly::Interval;

// ---------------------------------------------------------------------
// Decomposition
// ---------------------------------------------------------------------

Decomp::Decomp(const CycleConfig& cfg, int ranks)
    : ranks_(ranks), levels_(cfg.levels), cfg_(cfg) {
  PMG_CHECK(ranks >= 1, "need at least one rank");
  const index_t n0 = cfg.level_n(0);
  PMG_CHECK(ranks <= n0, "more ranks than coarsest rows ("
                             << ranks << " > " << n0 << ")");
  owned_.resize(static_cast<std::size_t>(levels_));
  // Anchor at the coarsest level: near-even split of [1, n0].
  auto& coarse = owned_[0];
  coarse.resize(static_cast<std::size_t>(ranks));
  index_t lo = 1;
  for (int r = 0; r < ranks; ++r) {
    const index_t rows = n0 / ranks + (r < static_cast<int>(n0 % ranks));
    coarse[static_cast<std::size_t>(r)] = Interval{lo, lo + rows - 1};
    lo += rows;
  }
  // Refine upward under the 2i map: coarse [lo, hi] -> fine
  // [2lo - 1, 2hi]; the last rank additionally takes the final fine row.
  for (int l = 1; l < levels_; ++l) {
    auto& fine = owned_[static_cast<std::size_t>(l)];
    fine.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      const Interval c = owned_[static_cast<std::size_t>(l - 1)]
                               [static_cast<std::size_t>(r)];
      Interval f{2 * c.lo - 1, 2 * c.hi};
      if (r == ranks - 1) f.hi = cfg.level_n(l);
      fine[static_cast<std::size_t>(r)] = f;
    }
  }
}

Interval Decomp::owned(int level, int rank) const {
  return owned_[static_cast<std::size_t>(level)]
               [static_cast<std::size_t>(rank)];
}

Decomp Decomp::shrink_to_survivors(int survivors) const {
  PMG_CHECK(survivors >= 1 && survivors <= ranks_,
            "survivor count " << survivors << " out of range (had "
                              << ranks_ << " ranks)");
  return Decomp(cfg_, survivors);
}

// ---------------------------------------------------------------------
// Local kernels (identical arithmetic to solvers::HandOptSolver, so a
// distributed cycle reproduces the shared-memory result bit for bit)
// ---------------------------------------------------------------------

namespace {

void jacobi_rows(int ndim, View dst, View src, View f, index_t rlo,
                 index_t rhi, index_t n, double w, double inv_h2) {
  for (index_t i = rlo; i <= rhi; ++i) {
    if (ndim == 2) {
      const double* s0 = &src.at2(i - 1, 0);
      const double* s1 = &src.at2(i, 0);
      const double* s2 = &src.at2(i + 1, 0);
      const double* fr = &f.at2(i, 0);
      double* d = &dst.at2(i, 0);
#pragma omp simd
      for (index_t j = 1; j <= n; ++j) {
        const double av =
            inv_h2 * (4.0 * s1[j] - s0[j] - s2[j] - s1[j - 1] - s1[j + 1]);
        d[j] = s1[j] - w * (av - fr[j]);
      }
    } else {
      for (index_t j = 1; j <= n; ++j) {
        const double* c = &src.at3(i, j, 0);
        const double* im = &src.at3(i - 1, j, 0);
        const double* ip = &src.at3(i + 1, j, 0);
        const double* jm = &src.at3(i, j - 1, 0);
        const double* jp = &src.at3(i, j + 1, 0);
        const double* fr = &f.at3(i, j, 0);
        double* d = &dst.at3(i, j, 0);
#pragma omp simd
        for (index_t k = 1; k <= n; ++k) {
          const double av = inv_h2 * (6.0 * c[k] - im[k] - ip[k] - jm[k] -
                                      jp[k] - c[k - 1] - c[k + 1]);
          d[k] = c[k] - w * (av - fr[k]);
        }
      }
    }
  }
}

void residual_rows(int ndim, View r, View v, View f, index_t rlo,
                   index_t rhi, index_t n, double inv_h2) {
  for (index_t i = rlo; i <= rhi; ++i) {
    if (ndim == 2) {
      const double* s0 = &v.at2(i - 1, 0);
      const double* s1 = &v.at2(i, 0);
      const double* s2 = &v.at2(i + 1, 0);
      const double* fr = &f.at2(i, 0);
      double* d = &r.at2(i, 0);
#pragma omp simd
      for (index_t j = 1; j <= n; ++j) {
        d[j] = fr[j] - inv_h2 * (4.0 * s1[j] - s0[j] - s2[j] - s1[j - 1] -
                                 s1[j + 1]);
      }
    } else {
      for (index_t j = 1; j <= n; ++j) {
        const double* c = &v.at3(i, j, 0);
        const double* im = &v.at3(i - 1, j, 0);
        const double* ip = &v.at3(i + 1, j, 0);
        const double* jm = &v.at3(i, j - 1, 0);
        const double* jp = &v.at3(i, j + 1, 0);
        const double* fr = &f.at3(i, j, 0);
        double* d = &r.at3(i, j, 0);
#pragma omp simd
        for (index_t k = 1; k <= n; ++k) {
          d[k] = fr[k] - inv_h2 * (6.0 * c[k] - im[k] - ip[k] - jm[k] -
                                   jp[k] - c[k - 1] - c[k + 1]);
        }
      }
    }
  }
}

void restrict_rows(int ndim, View coarse_f, View fine_r, index_t clo,
                   index_t chi, index_t nc) {
  for (index_t i = clo; i <= chi; ++i) {
    const index_t fi = 2 * i;
    if (ndim == 2) {
      for (index_t j = 1; j <= nc; ++j) {
        const index_t fj = 2 * j;
        coarse_f.at2(i, j) =
            (fine_r.at2(fi - 1, fj - 1) + 2 * fine_r.at2(fi - 1, fj) +
             fine_r.at2(fi - 1, fj + 1) + 2 * fine_r.at2(fi, fj - 1) +
             4 * fine_r.at2(fi, fj) + 2 * fine_r.at2(fi, fj + 1) +
             fine_r.at2(fi + 1, fj - 1) + 2 * fine_r.at2(fi + 1, fj) +
             fine_r.at2(fi + 1, fj + 1)) /
            16.0;
      }
    } else {
      for (index_t j = 1; j <= nc; ++j) {
        for (index_t k = 1; k <= nc; ++k) {
          double acc = 0.0;
          for (int di = -1; di <= 1; ++di) {
            for (int dj = -1; dj <= 1; ++dj) {
              for (int dk = -1; dk <= 1; ++dk) {
                const int dist = (di != 0) + (dj != 0) + (dk != 0);
                const double wgt =
                    dist == 0 ? 8.0 : dist == 1 ? 4.0 : dist == 2 ? 2.0 : 1.0;
                acc += wgt * fine_r.at3(fi + di, 2 * j + dj, 2 * k + dk);
              }
            }
          }
          coarse_f.at3(i, j, k) = acc / 64.0;
        }
      }
    }
  }
}

void interp_correct_rows(int ndim, View v_fine, View e_coarse, index_t flo,
                         index_t fhi, index_t nf) {
  for (index_t i = flo; i <= fhi; ++i) {
    const index_t ci = i / 2;
    if (ndim == 2) {
      for (index_t j = 1; j <= nf; ++j) {
        const index_t cj = j / 2;
        double e;
        if ((i & 1) == 0 && (j & 1) == 0) {
          e = e_coarse.at2(ci, cj);
        } else if ((i & 1) == 0) {
          e = 0.5 * (e_coarse.at2(ci, cj) + e_coarse.at2(ci, cj + 1));
        } else if ((j & 1) == 0) {
          e = 0.5 * (e_coarse.at2(ci, cj) + e_coarse.at2(ci + 1, cj));
        } else {
          e = 0.25 * (e_coarse.at2(ci, cj) + e_coarse.at2(ci, cj + 1) +
                      e_coarse.at2(ci + 1, cj) +
                      e_coarse.at2(ci + 1, cj + 1));
        }
        v_fine.at2(i, j) += e;
      }
    } else {
      for (index_t j = 1; j <= nf; ++j) {
        for (index_t k = 1; k <= nf; ++k) {
          double acc = 0.0;
          int npts = 0;
          for (int di = 0; di <= (i & 1); ++di) {
            for (int dj = 0; dj <= (j & 1); ++dj) {
              for (int dk = 0; dk <= (k & 1); ++dk) {
                acc += e_coarse.at3(ci + di, j / 2 + dj, k / 2 + dk);
                ++npts;
              }
            }
          }
          v_fine.at3(i, j, k) += acc / npts;
        }
      }
    }
  }
}

/// Row-block copy between two ranks' local views (global coordinates).
void copy_rows(int ndim, View dst, View src, index_t rlo, index_t rhi,
               index_t n) {
  if (rlo > rhi) return;
  Box rows(ndim);
  rows.dim(0) = Interval{rlo, rhi};
  for (int d = 1; d < ndim; ++d) rows.dim(d) = Interval{0, n + 1};
  grid::copy_region(dst, src, rows);
}

}  // namespace

// ---------------------------------------------------------------------
// DistMgSolver
// ---------------------------------------------------------------------

DistMgSolver::DistMgSolver(const CycleConfig& cfg, int ranks,
                           int ghost_depth)
    : cfg_(cfg),
      decomp_(cfg, ranks),
      ghost_depth_(std::max<index_t>(1, ghost_depth)) {
  cfg_.validate();
  PMG_CHECK(cfg_.smoother == solvers::SmootherKind::Jacobi,
            "the distributed backend implements Jacobi smoothing");
  auto& m = obs::Metrics::instance();
  ctr_exchanges_ = &m.counter("dist.exchanges");
  ctr_messages_ = &m.counter("dist.messages");
  ctr_retries_ = &m.counter("dist.halo_retries");
  ctr_doubles_sent_ = &m.counter("dist.doubles_sent");
  rank_stats_.resize(static_cast<std::size_t>(ranks));
  build_state();
}

DistMgSolver::~DistMgSolver() = default;

void DistMgSolver::build_state() {
  const int ranks = decomp_.ranks();
  // The halo exchange reads only the adjacent rank: its owned block must
  // cover the deepest halo at every level.
  for (int l = 0; l < cfg_.levels; ++l) {
    for (int r = 0; r < ranks; ++r) {
      PMG_CHECK(decomp_.owned(l, r).size() >= ghost_depth_,
                "ghost depth " << ghost_depth_
                               << " exceeds rank " << r << " rows at level "
                               << l);
    }
  }

  state_.clear();
  state_.resize(static_cast<std::size_t>(cfg_.levels));
  for (int l = 0; l < cfg_.levels; ++l) {
    auto& lvl = state_[static_cast<std::size_t>(l)];
    lvl.resize(static_cast<std::size_t>(ranks));
    const index_t n = cfg_.level_n(l);
    for (int r = 0; r < ranks; ++r) {
      RankLevel& rl = lvl[static_cast<std::size_t>(r)];
      rl.owned = decomp_.owned(l, r);
      Box box(cfg_.ndim);
      box.dim(0) = Interval{rl.owned.lo - ghost_depth_,
                            rl.owned.hi + ghost_depth_};
      for (int d = 1; d < cfg_.ndim; ++d) box.dim(d) = Interval{0, n + 1};
      rl.local_box = box;
      rl.v = grid::make_grid(box);
      rl.f = grid::make_grid(box);
      rl.r = grid::make_grid(box);
      rl.tmp = grid::make_grid(box);
    }
  }
}

double* DistMgSolver::field_ptr(RankLevel& rl, int which) {
  return which == 0 ? rl.v.data() : which == 1 ? rl.f.data() : rl.r.data();
}

void DistMgSolver::exchange(int level, int which, index_t depth) {
  auto& lvl = state_[static_cast<std::size_t>(level)];
  const index_t n = cfg_.level_n(level);
  const int R = decomp_.ranks();
  ++stats_.exchanges;
  ctr_exchanges_->add(1);
  PMG_TRACE_NOW(x0);
  const long doubles_before = stats_.doubles_sent;
  // One neighbour-to-neighbour message from `sender` to `receiver`. A
  // real network can drop or corrupt a delivery (fault site `dist.halo`);
  // the copy only happens once a send attempt goes through, and each
  // re-send is counted in CommStats::retries. Persistent failure surfaces
  // as a typed error rather than smoothing against a stale halo. A sender
  // that stops answering altogether (fault site `rank.death`) is declared
  // dead after the exchange times out: the cycle aborts with
  // Error(RankFailure) and recovery takes over.
  const auto deliver = [&](int receiver, int sender, View dst, View src,
                           index_t rlo, index_t rhi) {
    if (rlo > rhi) return;
    CommStats& rs = rank_stats_[static_cast<std::size_t>(receiver)];
    if (!recovering_ && fault::should_fail(fault::kRankDeath)) {
      pending_dead_ = sender;
      obs::Metrics::instance().counter("resil.rank_deaths").add(1);
      PMG_TRACE_INSTANT(RankDeath, level, which, sender, 0.0);
      throw Error(ErrorCode::RankFailure,
                  "rank " + std::to_string(sender) +
                      " stopped answering (halo timeout at level " +
                      std::to_string(level) + ")");
    }
    int dropped = 0;
    while (fault::should_fail(fault::kDistHalo)) {
      ++dropped;
      obs::Metrics::instance().counter("fault.dist_halo").add(1);
      PMG_TRACE_INSTANT(FaultInjected, level, which, /*site=*/2,
                        static_cast<double>(dropped));
      if (dropped > max_halo_retries_) {
        throw Error(ErrorCode::HaloExchangeFailed,
                    "halo message dropped " + std::to_string(dropped) +
                        " times (level " + std::to_string(level) +
                        ", rows " + std::to_string(rlo) + ".." +
                        std::to_string(rhi) + "); retries exhausted");
      }
      ++stats_.retries;
      ++rs.retries;
      ctr_retries_->add(1);
      PMG_TRACE_INSTANT(HaloRetry, level, which,
                        static_cast<int>(rlo), static_cast<double>(dropped));
    }
    copy_rows(cfg_.ndim, dst, src, rlo, rhi, n);
    const long doubles = (rhi - rlo + 1) * dst.stride[0];
    if (recovering_) {
      // Recovery's re-scatter: charge the traffic to the resilience
      // budget, not the solve's own communication volume.
      ++stats_.recovery_messages;
      ++rs.recovery_messages;
      stats_.recovery_doubles += doubles;
      rs.recovery_doubles += doubles;
      return;
    }
    ++stats_.messages;
    ++rs.messages;
    ctr_messages_->add(1);
    stats_.doubles_sent += doubles;
    rs.doubles_sent += doubles;
  };
  for (int r = 0; r < R; ++r) {
    RankLevel& me = lvl[static_cast<std::size_t>(r)];
    View mine = View::over(field_ptr(me, which), me.local_box);
    // Lower halo from rank r-1 (or the global Dirichlet boundary).
    if (r > 0) {
      RankLevel& nb = lvl[static_cast<std::size_t>(r - 1)];
      View theirs = View::over(field_ptr(nb, which), nb.local_box);
      deliver(r, r - 1, mine, theirs,
              std::max(me.owned.lo - depth, nb.owned.lo),
              me.owned.lo - 1);
    }
    // Upper halo from rank r+1.
    if (r < R - 1) {
      RankLevel& nb = lvl[static_cast<std::size_t>(r + 1)];
      View theirs = View::over(field_ptr(nb, which), nb.local_box);
      deliver(r, r + 1, mine, theirs, me.owned.hi + 1,
              std::min(me.owned.hi + depth, nb.owned.hi));
    }
  }
  ctr_doubles_sent_->add(stats_.doubles_sent - doubles_before);
  PMG_TRACE_SPAN(HaloExchange, x0, level, which,
                 static_cast<int>(depth),
                 static_cast<double>(stats_.doubles_sent - doubles_before));
}

void DistMgSolver::smooth(int level, int steps) {
  if (steps <= 0) return;
  auto& lvl = state_[static_cast<std::size_t>(level)];
  const index_t n = cfg_.level_n(level);
  const double w = cfg_.smoother_weight(level);
  const double inv_h2 = 1.0 / (cfg_.level_h(level) * cfg_.level_h(level));

  int done = 0;
  while (done < steps) {
    const int s =
        static_cast<int>(std::min<index_t>(ghost_depth_, steps - done));
    // Communication aggregation: one exchange of depth s covers s steps
    // with redundant halo computation shrinking by one row per step.
    exchange(level, /*v=*/0, s);
#pragma omp parallel for schedule(static)
    for (int r = 0; r < decomp_.ranks(); ++r) {
      RankLevel& rl = lvl[static_cast<std::size_t>(r)];
      View bufs[2] = {rl.vv(), rl.tv()};
      for (int j = 0; j < s; ++j) {
        const index_t extra = s - 1 - j;
        const index_t rlo = std::max<index_t>(1, rl.owned.lo - extra);
        const index_t rhi = std::min<index_t>(n, rl.owned.hi + extra);
        jacobi_rows(cfg_.ndim, bufs[(j + 1) & 1], bufs[j & 1], rl.fv(), rlo,
                    rhi, n, w, inv_h2);
      }
      if (s & 1) {  // result landed in tmp: move the owned rows back
        copy_rows(cfg_.ndim, rl.vv(), rl.tv(), rl.owned.lo, rl.owned.hi, n);
      }
      tsan_join_release();
    }
    tsan_join_acquire();
    done += s;
  }
}

void DistMgSolver::residual(int level) {
  exchange(level, /*v=*/0, 1);
  auto& lvl = state_[static_cast<std::size_t>(level)];
  const index_t n = cfg_.level_n(level);
  const double inv_h2 = 1.0 / (cfg_.level_h(level) * cfg_.level_h(level));
#pragma omp parallel for schedule(static)
  for (int r = 0; r < decomp_.ranks(); ++r) {
    RankLevel& rl = lvl[static_cast<std::size_t>(r)];
    residual_rows(cfg_.ndim, rl.rv(), rl.vv(), rl.fv(), rl.owned.lo,
                  rl.owned.hi, n, inv_h2);
    tsan_join_release();
  }
  tsan_join_acquire();
}

void DistMgSolver::restrict_to(int level) {
  exchange(level, /*r=*/2, 1);
  auto& fine = state_[static_cast<std::size_t>(level)];
  auto& coarse = state_[static_cast<std::size_t>(level - 1)];
  const index_t nc = cfg_.level_n(level - 1);
#pragma omp parallel for schedule(static)
  for (int r = 0; r < decomp_.ranks(); ++r) {
    RankLevel& cf = coarse[static_cast<std::size_t>(r)];
    RankLevel& fr = fine[static_cast<std::size_t>(r)];
    restrict_rows(cfg_.ndim, cf.fv(), fr.rv(), cf.owned.lo, cf.owned.hi, nc);
    tsan_join_release();
  }
  tsan_join_acquire();
  // The coarse right-hand side halo feeds aggregated smoothing there.
  exchange(level - 1, /*f=*/1, ghost_depth_);
}

void DistMgSolver::interp_correct(int level) {
  exchange(level - 1, /*v=*/0, 1);
  auto& fine = state_[static_cast<std::size_t>(level)];
  auto& coarse = state_[static_cast<std::size_t>(level - 1)];
  const index_t nf = cfg_.level_n(level);
#pragma omp parallel for schedule(static)
  for (int r = 0; r < decomp_.ranks(); ++r) {
    RankLevel& fr = fine[static_cast<std::size_t>(r)];
    RankLevel& cf = coarse[static_cast<std::size_t>(r)];
    interp_correct_rows(cfg_.ndim, fr.vv(), cf.vv(), fr.owned.lo,
                        fr.owned.hi, nf);
    tsan_join_release();
  }
  tsan_join_acquire();
}

void DistMgSolver::zero_v(int level) {
  auto& lvl = state_[static_cast<std::size_t>(level)];
  for (RankLevel& rl : lvl) rl.v.fill(0.0);
}

void DistMgSolver::visit(int level, bool zero_guess,
                         solvers::CycleKind kind) {
  using solvers::CycleKind;
  if (zero_guess) zero_v(level);
  if (level == 0) {
    smooth(0, cfg_.n2);
    return;
  }
  smooth(level, cfg_.n1);
  residual(level);
  restrict_to(level);
  visit(level - 1, /*zero_guess=*/true, kind);
  if (kind == CycleKind::W && level >= 2) {
    visit(level - 1, /*zero_guess=*/false, kind);
  } else if (kind == CycleKind::F) {
    visit(level - 1, /*zero_guess=*/false, CycleKind::V);
  }
  interp_correct(level);
  smooth(level, cfg_.n3);
}

void DistMgSolver::scatter(View v, View f) {
  const int L = cfg_.levels - 1;
  const index_t n = cfg_.level_n(L);
  auto& lvl = state_[static_cast<std::size_t>(L)];
  for (RankLevel& rl : lvl) {
    // Owned rows plus the adjacent global boundary rows (0 and n+1).
    const index_t lo = rl.owned.lo == 1 ? 0 : rl.owned.lo;
    const index_t hi = rl.owned.hi == n ? n + 1 : rl.owned.hi;
    copy_rows(cfg_.ndim, rl.vv(), v, lo, hi, n);
    copy_rows(cfg_.ndim, rl.fv(), f, lo, hi, n);
  }
  exchange(L, /*f=*/1, ghost_depth_);
}

void DistMgSolver::cycle() {
  visit(cfg_.levels - 1, /*zero_guess=*/false, cfg_.kind);
}

void DistMgSolver::gather(View v) const {
  const int L = cfg_.levels - 1;
  const index_t n = cfg_.level_n(L);
  const auto& lvl = state_[static_cast<std::size_t>(L)];
  for (const RankLevel& rl : lvl) {
    RankLevel& mut = const_cast<RankLevel&>(rl);
    copy_rows(cfg_.ndim, v, mut.vv(), rl.owned.lo, rl.owned.hi, n);
  }
}

// ---------------------------------------------------------------------
// Resilience: ring-replicated checkpoints and rank-failure recovery
// ---------------------------------------------------------------------

Interval DistMgSolver::checkpoint_rows(int rank) const {
  const int L = cfg_.levels - 1;
  const index_t n = cfg_.level_n(L);
  Interval rows = decomp_.owned(L, rank);
  // Widen to the adjacent global Dirichlet boundary rows so the union of
  // all slabs tiles the full global field [0, n+1] exactly once.
  if (rows.lo == 1) rows.lo = 0;
  if (rows.hi == n) rows.hi = n + 1;
  return rows;
}

bool DistMgSolver::has_checkpoint() const {
  return ckpt_ != nullptr && ckpt_->valid();
}

void DistMgSolver::write_checkpoint(int next_cycle) {
  if (!ckpt_) {
    ckpt_pool_ = std::make_unique<runtime::MemoryPool>();
    ckpt_ = std::make_unique<solvers::Checkpoint>(*ckpt_pool_);
  }
  const int L = cfg_.levels - 1;
  const int R = decomp_.ranks();
  auto& lvl = state_[static_cast<std::size_t>(L)];
  ckpt_->begin(next_cycle);
  // Only the finest-level iterate and right-hand side carry state across
  // cycle boundaries (every cycle zeroes the coarse iterates and
  // recomputes the coarse right-hand sides by restriction), so the
  // finest slabs are the whole checkpoint. Four slots per rank: own v,
  // own f, then a replica of the left ring neighbour's v and f — the
  // replica is what survives this rank's neighbour dying.
  for (int r = 0; r < R; ++r) {
    RankLevel& rl = lvl[static_cast<std::size_t>(r)];
    const index_t stride = rl.vv().stride[0];
    const Interval rows = checkpoint_rows(r);
    const index_t off = (rows.lo - rl.local_box.dim(0).lo) * stride;
    const index_t doubles = rows.size() * stride;
    ckpt_->save(static_cast<std::size_t>(4 * r + 0), rl.v.data() + off,
                doubles);
    ckpt_->save(static_cast<std::size_t>(4 * r + 1), rl.f.data() + off,
                doubles);
    const int src = (r - 1 + R) % R;
    RankLevel& sl = lvl[static_cast<std::size_t>(src)];
    const Interval srows = checkpoint_rows(src);
    const index_t soff = (srows.lo - sl.local_box.dim(0).lo) * stride;
    const index_t sdoubles = srows.size() * stride;
    ckpt_->save(static_cast<std::size_t>(4 * r + 2), sl.v.data() + soff,
                sdoubles);
    ckpt_->save(static_cast<std::size_t>(4 * r + 3), sl.f.data() + soff,
                sdoubles);
    if (R > 1) {
      // Replication is two messages (v, f) from `src` to this rank on a
      // real network — charged to the resilience budget.
      CommStats& rs = rank_stats_[static_cast<std::size_t>(r)];
      stats_.recovery_messages += 2;
      rs.recovery_messages += 2;
      stats_.recovery_doubles += 2 * sdoubles;
      rs.recovery_doubles += 2 * sdoubles;
    }
  }
  ckpt_->commit();
}

void DistMgSolver::recover(int dead_rank) {
  const int R = decomp_.ranks();
  PMG_CHECK(has_checkpoint(), "recover() needs a committed checkpoint");
  PMG_CHECK(dead_rank >= 0 && dead_rank < R,
            "dead rank " << dead_rank << " out of range");
  PMG_CHECK(R >= 2, "cannot recover the only rank");
  const int L = cfg_.levels - 1;
  const index_t n = cfg_.level_n(L);

  // Reassemble the global finest-level fields from the checkpoint: every
  // survivor restores its own slab, the dead rank's slab comes from the
  // replica held by its right ring neighbour. A checksum mismatch means
  // the recovery is unserviceable — surface it as a typed error.
  Box gbox(cfg_.ndim);
  for (int d = 0; d < cfg_.ndim; ++d) gbox.dim(d) = Interval{0, n + 1};
  grid::Buffer gv = grid::make_grid(gbox);
  grid::Buffer gf = grid::make_grid(gbox);
  View gvv = View::over(gv.data(), gbox);
  View gfv = View::over(gf.data(), gbox);
  const index_t stride = gvv.stride[0];
  long restored_doubles = 0;
  for (int r = 0; r < R; ++r) {
    const Interval rows = checkpoint_rows(r);
    const index_t doubles = rows.size() * stride;
    const index_t off = rows.lo * stride;
    std::size_t v_slot, f_slot;
    if (r == dead_rank) {
      const int mirror = (dead_rank + 1) % R;
      v_slot = static_cast<std::size_t>(4 * mirror + 2);
      f_slot = static_cast<std::size_t>(4 * mirror + 3);
      // Fetching the replica crosses the network.
      CommStats& ms = rank_stats_[static_cast<std::size_t>(mirror)];
      stats_.recovery_messages += 2;
      ms.recovery_messages += 2;
      stats_.recovery_doubles += 2 * doubles;
      ms.recovery_doubles += 2 * doubles;
    } else {
      v_slot = static_cast<std::size_t>(4 * r + 0);
      f_slot = static_cast<std::size_t>(4 * r + 1);
    }
    if (!ckpt_->restore(v_slot, gv.data() + off, doubles) ||
        !ckpt_->restore(f_slot, gf.data() + off, doubles)) {
      throw Error(ErrorCode::CheckpointCorrupt,
                  "checkpoint slab for rank " + std::to_string(r) +
                      " failed its checksum; recovery unserviceable");
    }
    restored_doubles += 2 * doubles;
  }

  // Shrink to the survivors and rebuild the local fields. The new
  // decomposition is exactly what a fresh solver with R-1 ranks would
  // use, and distributed results are rank-count independent, so the
  // continued solve converges to the same answer as an unfailed run.
  const int resume = ckpt_->next_cycle();
  decomp_ = decomp_.shrink_to_survivors(R - 1);
  build_state();
  recovering_ = true;  // route scatter traffic to recovery accounting
  scatter(gvv, gfv);
  recovering_ = false;
  // The slab redistribution itself: each surviving rank receives its new
  // v and f slabs (scatter's copies are direct memcpys in simulation but
  // messages on a network).
  for (int r = 0; r < decomp_.ranks(); ++r) {
    const Interval rows = checkpoint_rows(r);
    const long doubles = rows.size() * stride;
    CommStats& rs = rank_stats_[static_cast<std::size_t>(r)];
    stats_.recovery_messages += 2;
    rs.recovery_messages += 2;
    stats_.recovery_doubles += 2 * doubles;
    rs.recovery_doubles += 2 * doubles;
  }
  // Re-checkpoint under the new topology so a second death is survivable.
  write_checkpoint(resume);
  obs::Metrics::instance().counter("resil.recoveries").add(1);
  PMG_TRACE_INSTANT(Recovery, -1, -1, dead_rank,
                    static_cast<double>(restored_doubles));
  pending_dead_ = -1;
}

DistMgSolver::ResilienceReport DistMgSolver::solve_cycles(
    int cycles, const ResilienceConfig& rc) {
  PMG_CHECK(cycles >= 0, "negative cycle count");
  ResilienceReport rep;
  const bool ckpt_on = rc.checkpoint_cadence > 0;
  if (ckpt_on) {
    write_checkpoint(0);
    ++rep.checkpoint_writes;
  }
  int c = 0;
  while (c < cycles) {
    try {
      cycle();
    } catch (const Error& e) {
      if (e.code() != ErrorCode::RankFailure) throw;
      ++rep.rank_deaths;
      // Unrecoverable: no snapshot to roll back to, the recovery budget
      // is spent, or there is no survivor to absorb the slab.
      if (!has_checkpoint() || rep.recoveries >= rc.max_recoveries ||
          decomp_.ranks() < 2 || pending_dead_ < 0) {
        throw;
      }
      const int resume = ckpt_->next_cycle();
      recover(pending_dead_);
      ++rep.recoveries;
      ++rep.checkpoint_restores;
      ++rep.checkpoint_writes;  // recover() re-checkpoints
      c = resume;
      continue;
    }
    ++c;
    ++rep.cycles_run;
    if (ckpt_on && c < cycles && c % rc.checkpoint_cadence == 0) {
      write_checkpoint(c);
      ++rep.checkpoint_writes;
    }
  }
  rep.final_ranks = decomp_.ranks();
  return rep;
}

}  // namespace polymg::dist
