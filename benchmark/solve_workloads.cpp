// The two time-to-tolerance workloads: guarded_solve of 2-d Poisson to
// rel_tol 1e-8 with the opt+ plan, weighted Jacobi (omega = 2/3), zero
// initial guess and a session GuardedExecutor built in set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "layers.hpp"
#include "polymg/grid/ops.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"
#include "polymg/opt/compile.hpp"
#include "polymg/opt/validate.hpp"
#include "polymg/solvers/guarded.hpp"
#include "polymg/solvers/metrics.hpp"

namespace pmgbench {

namespace {

namespace grid = polymg::grid;
namespace opt = polymg::opt;
namespace runtime = polymg::runtime;
namespace solvers = polymg::solvers;

constexpr double kRelTol = 1e-8;
/// Bound on the relative max-norm difference from the reference-plan solve.
constexpr double kRefTol = 1e-10;

struct SolveSpec {
  CycleConfig cfg;
  RhsKind rhs = RhsKind::Smooth;
  int rhs_pool = 2;    ///< distinct right-hand sides per run
  int warmups = 2;  ///< untimed solves after set-up
};

CycleConfig cycle(int ndim, polymg::poly::index_t n, int levels,
                  solvers::CycleKind kind) {
  CycleConfig c;
  c.ndim = ndim;
  c.n = n;
  c.levels = levels;
  c.kind = kind;  // n1 = n2 = n3 = 4, omega = 2/3 (the defaults)
  return c;
}

// The hierarchies reach a 3^2 (W-cycle: 7^2) coarsest grid: with only four
// smoothing steps there, shallower hierarchies leave the lowest modes
// unsolved and the cycle count to 1e-8 swings with the seed.
SolveSpec spec_for(const std::string& w, bool quick) {
  using solvers::CycleKind;
  SolveSpec s;
  if (w == "solve-2d-large") {
    s.cfg = quick ? cycle(2, 255, 7, CycleKind::V)
                  : cycle(2, 4095, 11, CycleKind::V);
    s.warmups = 1;
  } else if (w == "solve-2d-wcycle") {
    s.cfg = quick ? cycle(2, 255, 6, CycleKind::W)
                  : cycle(2, 1023, 7, CycleKind::W);
    s.rhs = RhsKind::Rough;
    s.rhs_pool = 4;
    s.warmups = 3;
  } else {
    throw std::invalid_argument("unknown solver workload " + w);
  }
  return s;
}

/// The workload's inputs: a pool of right-hand sides and their initial
/// residual norms, swapped in and out of one problem's `f`.
struct Inputs {
  std::vector<Buffer> rhs;
  std::vector<double> r0;
  PoissonProblem p;

  void use(std::size_t k) { std::swap(p.f, rhs[k]); }
  void release(std::size_t k) { std::swap(p.f, rhs[k]); }
};

/// The first timed solve's iterate and the right-hand side it solved.
struct FirstIterate {
  std::optional<Buffer> v;
  std::size_t rhs = 0;
};

struct Solves {
  std::vector<double> ms;
  std::vector<double> cycles;
  std::vector<double> attempts;
  std::int64_t failed = 0;
};

/// One guarded_solve from a zero guess on right-hand side `k`, timed from
/// outside; the final residual is then recomputed untimed.
void solve_once(const SolveSpec& s, const opt::CompileOptions& copts,
                runtime::GuardedExecutor& gx, Inputs& in, std::size_t k,
                Solves& out, SpanLog& spans, int parent, std::int64_t req,
                FirstIterate* first) {
  in.use(k);
  in.p.v.fill(0.0);
  solvers::GuardPolicy pol;
  pol.session_executor = &gx;
  solvers::SolveReport sr;
  const double ms = timed_ms(
      spans, "solvers::guarded_solve", parent,
      [&] { sr = solvers::guarded_solve(s.cfg, in.p, kRelTol, pol, copts); },
      req);
  const double r = solvers::residual_norm(in.p.v_view(), in.p.f_view(),
                                          in.p.n, in.p.h);
  bool threw = false;
  for (const auto& a : sr.attempts) threw = threw || a.threw;
  const bool ok = sr.converged && !threw &&
                  sr.status == polymg::ErrorCode::Generic &&
                  r <= kRelTol * in.r0[k] * (1.0 + 1e-9);
  if (!ok) {
    std::printf("solve %lld FAILED: converged=%d status=%d residual %.3e "
                "(target %.3e)\n%s",
                static_cast<long long>(req), sr.converged ? 1 : 0,
                static_cast<int>(sr.status), r, kRelTol * in.r0[k],
                sr.summary().c_str());
    ++out.failed;
  }
  out.ms.push_back(ms);
  out.cycles.push_back(sr.total_cycles);
  out.attempts.push_back(static_cast<double>(sr.attempts.size()));
  if (first != nullptr && !first->v) {
    first->v.emplace(in.p.v.clone());
    first->rhs = k;
  }
  in.release(k);
}

/// Solve back to back for `seconds` (at least `min_samples` solves).
Solves timed_solves(const SolveSpec& s, const opt::CompileOptions& copts,
                    runtime::GuardedExecutor& gx, Inputs& in, double seconds,
                    int min_samples, SpanLog& spans, std::int64_t& next_req,
                    FirstIterate* first) {
  Solves out;
  const int root = spans.open("timed solves");
  const auto start = Clock::now();
  while (static_cast<int>(out.ms.size()) < min_samples ||
         ms_between(start, Clock::now()) < seconds * 1e3) {
    const std::int64_t req = next_req++;
    solve_once(s, copts, gx, in,
               static_cast<std::size_t>(req) % in.rhs.size(), out, spans,
               root, req, first);
  }
  spans.close(root);
  return out;
}

/// Per-call time samples of the replayed solves.
class Ledger {
public:
  template <typename F>
  void time(SpanLog& spans, int parent, const char* layer, const char* call,
            F&& f) {
    const double ms = timed_ms(spans, call, parent, f);
    entry(layer, call).push_back(ms);
    replay_ms_ += ms;
  }
  void end_replay() {
    totals_.push_back(replay_ms_);
    replay_ms_ = 0.0;
  }
  /// Replayed total of each replay, in replay order.
  const std::vector<double>& totals() const { return totals_; }
  int replays() const { return static_cast<int>(totals_.size()); }
  /// Each call's share of `solve_p50_ms`, the median of the untraced
  /// solves the replays alternated with.
  void print(const char* workload, double solve_p50_ms) const {
    const double total = median(totals_);
    std::printf("ledger %s: %d replays, replayed total %.2f ms vs "
                "solve p50 %.2f ms\n",
                workload, replays(), total, solve_p50_ms);
    std::printf("  %-8s %-34s %8s %11s %11s %7s\n", "layer", "call",
                "calls", "ms/call", "ms/solve", "share");
    for (const Entry& e : entries_) {
      const double calls = static_cast<double>(e.ms.size()) / replays();
      const double per_solve = calls * median(e.ms);
      std::printf("  %-8s %-34s %8.2f %11.4f %11.3f %6.1f%%\n", e.layer,
                  e.call, calls, median(e.ms), per_solve,
                  100.0 * per_solve / solve_p50_ms);
    }
    const double un = solve_p50_ms - total;
    std::printf("  %-8s %-34s %8s %11s %11.3f %6.1f%%\n", "-",
                "unattributed (p50 - replayed total)", "", "", un,
                100.0 * un / solve_p50_ms);
  }

private:
  struct Entry {
    const char* layer;
    const char* call;
    std::vector<double> ms;
  };
  std::vector<double>& entry(const char* layer, const char* call) {
    for (Entry& e : entries_) {
      if (std::strcmp(e.call, call) == 0) return e.ms;
    }
    entries_.push_back({layer, call, {}});
    return entries_.back().ms;
  }
  std::vector<Entry> entries_;
  std::vector<double> totals_;
  double replay_ms_ = 0.0;
};

/// Replay guarded_solve's call sequence for one solve of `cycles` cycles
/// (attempt 0, session executor) from public functions, timing each call.
void replay_solve(runtime::GuardedExecutor& gx, Inputs& in, std::size_t k,
                  int cycles, Ledger& L, SpanLog& spans) {
  in.use(k);
  PoissonProblem& p = in.p;
  p.v.fill(0.0);
  const int root = spans.open("ledger replay");
  const auto norm = [&] {
    L.time(spans, root, "solvers", "solvers::residual_norm", [&] {
      volatile double r = solvers::residual_norm(p.v_view(), p.f_view(),
                                                 p.n, p.h);
      (void)r;
    });
  };
  std::optional<Buffer> v0;
  L.time(spans, root, "grid", "Buffer::clone", [&] { v0.emplace(p.v.clone()); });
  norm();  // initial residual
  norm();  // attempt's first residual
  const std::vector<grid::View> ext = {p.v_view(), p.f_view()};
  for (int c = 0; c < cycles; ++c) {
    L.time(spans, root, "runtime", "GuardedExecutor::run",
           [&] { gx.run(ext); });
    L.time(spans, root, "grid", "grid::copy_region", [&] {
      grid::copy_region(p.v_view(), gx.output_view(0), p.domain());
    });
    norm();
  }
  L.end_replay();
  spans.close(root);
  in.release(k);
}

/// Compare the first timed solve's iterate with a solve on the
/// reference_options plan (untimed); returns the relative max-norm
/// difference.
double reference_difference(const SolveSpec& s,
                            const opt::CompileOptions& copts, Inputs& in,
                            FirstIterate& first) {
  in.use(first.rhs);
  in.p.v.fill(0.0);
  const solvers::SolveReport sr = solvers::guarded_solve(
      s.cfg, in.p, kRelTol, solvers::GuardPolicy{},
      opt::reference_options(copts));
  const grid::View fv = grid::View::over(first.v->data(), in.p.domain());
  const double scale = grid::max_norm(in.p.v_view(), in.p.interior());
  const double diff = grid::max_diff(in.p.v_view(), fv, in.p.interior());
  in.release(first.rhs);
  return sr.converged && scale > 0.0 ? diff / scale : INFINITY;
}

std::uint64_t input_seed(std::uint64_t seed, std::size_t k) {
  return seed * 0x9e3779b97f4a7c15ull + 0x5151ull * (k + 1);
}

}  // namespace

bool is_solve_workload(const std::string& name) {
  return name == "solve-2d-large" || name == "solve-2d-wcycle";
}

void run_solve_workload(const Options& o, const HostInfo& host, Report& rep,
                        SpanLog& spans) {
  const SolveSpec s = spec_for(o.workload, o.quick);
  const opt::CompileOptions copts =
      opt::CompileOptions::for_variant(opt::Variant::OptPlus, s.cfg.ndim);
  std::printf("workload %s: %d-d %s-cycle(4,4,4) n=%lld levels=%d double, "
              "rel_tol %.0e, %d threads\n",
              o.workload.c_str(), s.cfg.ndim,
              s.cfg.kind == solvers::CycleKind::W ? "W" : "V",
              static_cast<long long>(s.cfg.n), s.cfg.levels, kRelTol,
              host.omp_threads);

  // Inputs (not part of set-up).
  Inputs in{{}, {}, make_problem(s.cfg)};
  for (int k = 0; k < s.rhs_pool; ++k) {
    in.rhs.push_back(make_rhs(s.cfg, s.rhs, input_seed(o.seed, k)));
    in.use(k);
    in.r0.push_back(solvers::residual_norm(in.p.v_view(), in.p.f_view(),
                                           in.p.n, in.p.h));
    in.release(k);
  }

  // Set-up, several times; the last session serves the solves.
  std::vector<SetupSample> setups(kSetupReps);
  std::vector<double> setup_s;
  Session sess;
  for (SetupSample& sample : setups) {
    sess = Session{};  // release the previous session's memory first
    in.use(0);
    sess = set_up(o, s.cfg, copts, in.p, spans, sample);
    in.release(0);
    setup_s.push_back(sample.total_s);
  }
  runtime::GuardedExecutor& gx = *sess.exec;

  std::int64_t next_req = 0;
  {
    Solves warm;
    for (int w = 0; w < s.warmups; ++w) {
      solve_once(s, copts, gx, in, static_cast<std::size_t>(w) % in.rhs.size(),
                 warm, spans, -1, next_req++, nullptr);
    }
  }

  auto& compiles = polymg::obs::Metrics::instance().counter("opt.compiles");
  const std::int64_t compiles_before = compiles.value();
  const int min_samples = o.quick ? 2 : 5;
  FirstIterate first;
  const double phase_s = o.trace ? o.seconds / 3.0 : o.seconds;
  Solves timed = timed_solves(s, copts, gx, in, phase_s, min_samples, spans,
                              next_req, &first);
  const std::int64_t compiles_timed = compiles.value() - compiles_before;
  const double rss = peak_rss_mib();

  const auto count = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  const double p50 = median(timed.ms);
  rep.set("setup_s", median(setup_s), "s", count(setup_s));
  rep.set("latency_p50_ms", p50, "ms", count(timed.ms));
  rep.set("latency_tail_ms", tail(timed.ms), "ms", count(timed.ms));
  rep.set("peak_rss_mib", rss, "MiB");
  rep.attempted = count(timed.ms);
  rep.failed = timed.failed;

  if (o.trace) {
    // Traced solves and ledger replays each alternate with an untraced
    // solve of the same right-hand side, so host drift between phases
    // cancels in the per-pair ratio and difference.
    const auto for_phase = [&](const char* name, auto&& body) {
      const int root = spans.open(name);
      const auto start = Clock::now();
      for (int i = 0; i < min_samples ||
                      ms_between(start, Clock::now()) < phase_s * 1e3;
           ++i) {
        body(static_cast<std::size_t>(next_req) % in.rhs.size(), root);
      }
      spans.close(root);
    };
    Solves plain_t, traced;
    for_phase("traced pairs", [&](std::size_t k, int root) {
      solve_once(s, copts, gx, in, k, plain_t, spans, root, next_req++,
                 nullptr);
      polymg::obs::TraceSession::start();
      solve_once(s, copts, gx, in, k, traced, spans, root, next_req++,
                 nullptr);
      polymg::obs::TraceSession::stop();
    });
    Solves plain_l;
    Ledger ledger;
    const int cycles = static_cast<int>(timed.cycles.front());
    for_phase("ledger pairs", [&](std::size_t k, int root) {
      solve_once(s, copts, gx, in, k, plain_l, spans, root, next_req++,
                 nullptr);
      replay_solve(gx, in, k, cycles, ledger, spans);
    });
    ledger.print(o.workload.c_str(), median(plain_l.ms));
    std::vector<double> ratio, unattributed;
    for (std::size_t i = 0; i < traced.ms.size(); ++i) {
      ratio.push_back(traced.ms[i] / plain_t.ms[i]);
    }
    for (std::size_t i = 0; i < plain_l.ms.size(); ++i) {
      unattributed.push_back(plain_l.ms[i] - ledger.totals()[i]);
    }
    rep.attempted += count(plain_t.ms) + count(traced.ms) + count(plain_l.ms);
    rep.failed += plain_t.failed + traced.failed + plain_l.failed;

    report_setup_layers(setups, *sess.plan, rep);
    rep.set("opt.compiles_per_solve",
            static_cast<double>(compiles_timed) / count(timed.ms), "count",
            count(timed.ms));
    in.use(0);
    probe_layers(*sess.plan, gx, in.p, rep, spans);
    in.release(0);
    rep.set("runtime.fallback_runs", gx.report().fallback_runs, "count");
    rep.set("solvers.cycles", median(timed.cycles), "count",
            count(timed.cycles));
    double attempts = 0.0;
    for (double a : timed.attempts) attempts += a;
    rep.set("solvers.attempts", attempts / count(timed.attempts), "count",
            count(timed.attempts));
    rep.set("solvers.solve_ms", p50, "ms", count(timed.ms));
    rep.set("ledger.unattributed_ms", median(unattributed), "ms",
            count(unattributed));
    rep.set("obs.trace_overhead", median(ratio), "ratio", count(ratio));
  }
  rep.check(rep.failed == 0,
            "every timed solve converged with status Generic and its "
            "recomputed residual within rel_tol");

  // Agreement with the reference plan (untimed, after every measurement).
  const double diff = reference_difference(s, copts, in, first);
  char what[160];
  std::snprintf(what, sizeof what,
                "first iterate vs reference-plan solve: relative max-norm "
                "difference %.3e (bound %.0e)",
                diff, kRefTol);
  const bool agree = diff <= kRefTol;
  rep.check(agree, what);
  if (!agree) ++rep.failed;
}

}  // namespace pmgbench
