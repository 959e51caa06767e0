#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "polymg/codegen/jit.hpp"
#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/common/parallel.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/report.hpp"
#include "polymg/obs/trace.hpp"

namespace polymg::bench {

std::vector<SizeClass> size_classes(bool paper) {
  if (paper) {
    // Table 2. Interiors are 2^k - 1 so the hierarchies align; the paper
    // quotes the allocated grid edge (N+2 ≈ 8194 etc.).
    return {{"B", 8191, 255, 10, 25}, {"C", 16383, 511, 10, 10}};
  }
  return {{"B", 511, 63, 3, 3}, {"C", 1023, 127, 3, 2}};
}

bool paper_sizes_requested(const Options& opts) {
  return opts.get_flag("paper", false) ||
         opts.get_flag("paper-sizes", false);
}

std::string to_string(Series s) {
  switch (s) {
    case Series::HandOpt:
      return "handopt";
    case Series::HandOptPluto:
      return "handopt+pluto";
    case Series::Naive:
      return "polymg-naive";
    case Series::Opt:
      return "polymg-opt";
    case Series::OptPlus:
      return "polymg-opt+";
    case Series::DtileOptPlus:
      return "polymg-dtile-opt+";
  }
  return "?";
}

const std::vector<Series>& all_series() {
  static const std::vector<Series> s = {
      Series::HandOpt, Series::HandOptPluto, Series::Naive,
      Series::Opt,     Series::OptPlus,      Series::DtileOptPlus};
  return s;
}

SolveRunner make_runner(Series s, const CycleConfig& cfg, int cycles,
                        std::uint64_t seed) {
  SolveRunner r;
  r.label = to_string(s);
  // The problem is built once; each timed run restores the pristine
  // initial guess (a memcpy) and then solves — so timings cover the
  // multigrid cycles plus each variant's allocation behaviour, exactly
  // the regime the pooled allocator targets.
  auto p = std::make_shared<solvers::PoissonProblem>(
      solvers::PoissonProblem::random_rhs(cfg.ndim, cfg.n, seed));
  auto v0 = std::make_shared<grid::Buffer>(p->v.clone());

  if (s == Series::HandOpt || s == Series::HandOptPluto) {
    auto solver = std::make_shared<solvers::HandOptSolver>(
        cfg, /*time_tiled=*/s == Series::HandOptPluto);
    r.run = [cfg, cycles, solver, p, v0] {
      grid::copy_region(p->v_view(), grid::View::over(v0->data(), p->domain()),
                        p->domain());
      for (int i = 0; i < cycles; ++i) {
        solver->cycle(p->v_view(), p->f_view());
      }
    };
    return r;
  }
  const Variant v = s == Series::Naive ? Variant::Naive
                    : s == Series::Opt ? Variant::Opt
                    : s == Series::DtileOptPlus ? Variant::DtileOptPlus
                                                : Variant::OptPlus;
  auto ex = std::make_shared<runtime::Executor>(opt::compile(
      solvers::build_cycle(cfg), CompileOptions::for_variant(v, cfg.ndim)));
  r.run = [cfg, cycles, ex, p, v0] {
    grid::copy_region(p->v_view(), grid::View::over(v0->data(), p->domain()),
                      p->domain());
    for (int i = 0; i < cycles; ++i) {
      const std::vector<grid::View> ext = {p->v_view(), p->f_view()};
      ex->run(ext);
      grid::copy_region(p->v_view(), ex->output_view(0), p->domain());
    }
  };
  return r;
}

std::vector<NasClass> nas_classes(bool paper) {
  if (paper) {
    return {{"B", 256, 8, 20}, {"C", 512, 9, 20}};
  }
  return {{"B", 32, 5, 4}, {"C", 64, 6, 4}};
}

SolveRunner make_nas_runner(Series s, const solvers::NasMgConfig& cfg,
                            int iters) {
  SolveRunner r;
  r.label = to_string(s);
  const poly::Box dom = poly::Box::cube(3, 0, cfg.n + 1);
  auto u = std::make_shared<grid::Buffer>(grid::make_grid(dom));
  auto v = std::make_shared<grid::Buffer>(grid::make_grid(dom));
  solvers::nas_fill_rhs(grid::View::over(v->data(), dom), cfg.n);

  if (s == Series::HandOpt || s == Series::HandOptPluto) {
    r.label = "nas-reference";
    auto ref = std::make_shared<solvers::NasMgReference>(cfg);
    r.run = [dom, iters, u, v, ref] {
      u->fill(0.0);
      for (int i = 0; i < iters; ++i) {
        ref->iterate(grid::View::over(u->data(), dom),
                     grid::View::over(v->data(), dom));
      }
    };
    return r;
  }
  const Variant var = s == Series::Naive ? Variant::Naive
                      : s == Series::Opt ? Variant::Opt
                                         : Variant::OptPlus;
  auto ex = std::make_shared<runtime::Executor>(opt::compile(
      solvers::build_nas_mg_pipeline(cfg),
      CompileOptions::for_variant(var, 3)));
  r.run = [dom, iters, u, v, ex] {
    u->fill(0.0);
    for (int i = 0; i < iters; ++i) {
      const std::vector<grid::View> ext = {grid::View::over(u->data(), dom),
                                           grid::View::over(v->data(), dom)};
      ex->run(ext);
      grid::copy_region(grid::View::over(u->data(), dom), ex->output_view(0),
                        dom);
    }
  };
  return r;
}

Stats time_runner(const SolveRunner& r, int repetitions) {
  return min_time_of(r.run, repetitions);
}

void arm_faults_from_options(const Options& opts) {
  const std::string spec = opts.get("fault", "");
  if (spec.empty()) return;
  try {
    fault::arm_from_spec(spec);
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid --fault spec '%s': %s\n", spec.c_str(),
                 e.what());
    std::exit(2);
  }
  std::printf("fault injection armed: %s\n", spec.c_str());
}

void apply_jit_from_options(const Options& opts) {
  const std::string spec = opts.get("jit", "auto");
  bool ok = false;
  const opt::JitMode mode = codegen::parse_jit_mode(spec, &ok);
  if (!ok) {
    std::fprintf(stderr,
                 "invalid --jit value '%s': expected on, off, or auto\n",
                 spec.c_str());
    std::exit(2);
  }
  codegen::set_jit_mode(mode);
  if (mode != opt::JitMode::Auto) {
    std::printf("jit mode: %s\n", opt::to_string(mode).c_str());
  }
}

double deadline_ms_from_options(const Options& opts) {
  double ms = 0.0;
  try {
    ms = opts.get_double("deadline-ms", 0.0);
  } catch (const Error& e) {
    std::fprintf(stderr, "invalid --deadline-ms: %s\n", e.what());
    std::exit(2);
  }
  if (ms < 0.0) {
    std::fprintf(stderr,
                 "invalid --deadline-ms: budget must be >= 0 ms, got %g\n",
                 ms);
    std::exit(2);
  }
  return ms;
}

TraceFromOptions::TraceFromOptions(const Options& opts)
    : path_(opts.get("trace", "")) {
  if (path_.empty()) return;
  if (path_ == "1" || path_ == "true") path_ = "trace.json";
  obs::TraceSession::start();
  std::printf("tracing enabled -> %s\n", path_.c_str());
}

TraceFromOptions::~TraceFromOptions() {
  if (path_.empty()) return;
  obs::TraceSession::stop();
  const auto events = obs::TraceSession::snapshot();
  obs::write_chrome_trace_file(path_, events);
  std::printf("wrote %zu trace event(s) to %s (%llu dropped)\n",
              events.size(), path_.c_str(),
              static_cast<unsigned long long>(obs::TraceSession::dropped()));
}

MetricsFromOptions::MetricsFromOptions(const Options& opts)
    : path_(opts.get("metrics", "")) {
  if (path_.empty()) return;
  if (path_ == "1" || path_ == "true") path_ = "metrics.json";
  // Fail HERE, at startup, if the sink is unwritable — not after the
  // benchmark has run to completion.
  {
    std::ofstream probe(path_, std::ios::app);
    if (!probe.good()) {
      std::fprintf(stderr, "cannot open --metrics sink '%s' for writing\n",
                   path_.c_str());
      std::exit(2);
    }
  }
  std::printf("metrics snapshot enabled -> %s\n", path_.c_str());
}

MetricsFromOptions::~MetricsFromOptions() {
  if (path_.empty()) return;
  std::ofstream os(path_, std::ios::trunc);
  os << obs::Metrics::instance().snapshot_json() << "\n";
  std::printf("wrote metrics snapshot to %s\n", path_.c_str());
}

void ResultTable::record(const std::string& row, const std::string& series,
                         double seconds) {
  if (data_.find(row) == data_.end()) row_order_.push_back(row);
  bool seen = false;
  for (const auto& s : series_order_) seen = seen || s == series;
  if (!seen) series_order_.push_back(series);
  // Capture the team size now: thread-sweep drivers change it between
  // rows, and write_json must report what the row actually ran with.
  row_threads_[row] = max_threads();
  data_[row][series].observe(seconds);
}

void ResultTable::record(const std::string& row, const std::string& series,
                         const Stats& stats) {
  if (data_.find(row) == data_.end()) row_order_.push_back(row);
  bool seen = false;
  for (const auto& s : series_order_) seen = seen || s == series;
  if (!seen) series_order_.push_back(series);
  row_threads_[row] = max_threads();
  data_[row][series] = stats;
}

double ResultTable::get(const std::string& row,
                        const std::string& series) const {
  return data_.at(row).at(series).min;
}

const Stats& ResultTable::get_stats(const std::string& row,
                                    const std::string& series) const {
  return data_.at(row).at(series);
}

void ResultTable::print(const std::string& title,
                        const std::string& baseline) const {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-24s", "benchmark");
  for (const auto& s : series_order_) std::printf(" %17s", s.c_str());
  std::printf("\n");
  std::printf("%-24s", "(seconds)");
  for (std::size_t i = 0; i < series_order_.size(); ++i) std::printf(" %17s", "");
  std::printf("\n");
  for (const auto& row : row_order_) {
    std::printf("%-24s", row.c_str());
    for (const auto& s : series_order_) {
      auto it = data_.at(row).find(s);
      if (it == data_.at(row).end()) {
        std::printf(" %17s", "-");
      } else {
        std::printf(" %17.4f", it->second.min);
      }
    }
    std::printf("\n");
  }
  if (baseline.empty()) return;
  std::printf("%-24s\n", ("speedup over " + baseline + ":").c_str());
  for (const auto& row : row_order_) {
    const auto base = data_.at(row).find(baseline);
    if (base == data_.at(row).end()) continue;
    std::printf("%-24s", row.c_str());
    for (const auto& s : series_order_) {
      auto it = data_.at(row).find(s);
      if (it == data_.at(row).end() || it->second.min <= 0) {
        std::printf(" %17s", "-");
      } else {
        std::printf(" %16.2fx", base->second.min / it->second.min);
      }
    }
    std::printf("\n");
  }
}

void ResultTable::write_json(const std::string& path,
                             const std::string& bench,
                             const std::string& baseline) const {
  std::ofstream os(path);
  PMG_CHECK(os.good(), "cannot open " << path << " for writing");
  os << "[\n";
  bool first = true;
  for (const auto& row : row_order_) {
    // Rows are "<benchmark point>/<size class>"; a row without the
    // separator has no class tag.
    const auto slash = row.rfind('/');
    const std::string point = slash == std::string::npos
                                  ? row
                                  : row.substr(0, slash);
    const std::string cls =
        slash == std::string::npos ? "" : row.substr(slash + 1);
    const auto& cells = data_.at(row);
    const auto base = cells.find(baseline);
    const auto tit = row_threads_.find(row);
    const int threads = tit == row_threads_.end() ? max_threads() : tit->second;
    for (const auto& s : series_order_) {
      const auto it = cells.find(s);
      if (it == cells.end()) continue;
      if (!first) os << ",\n";
      first = false;
      os << "  {\"bench\": \"" << bench << "/" << point << "\", "
         << "\"variant\": \"" << s << "\", "
         << "\"class\": \"" << cls << "\", "
         << "\"threads\": " << threads << ", "
         << "\"ms\": " << it->second.min * 1e3 << ", "
         << "\"mean_ms\": " << it->second.mean * 1e3 << ", "
         << "\"stddev_ms\": " << it->second.stddev * 1e3 << ", "
         << "\"reps\": " << it->second.n << ", "
         << "\"speedup_vs_naive\": ";
      if (base != cells.end() && it->second.min > 0) {
        os << base->second.min / it->second.min;
      } else {
        os << "null";
      }
      os << "}";
    }
  }
  os << "\n]\n";
}

double ResultTable::geomean_speedup(const std::string& series,
                                    const std::string& baseline) const {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [row, m] : data_) {
    const auto a = m.find(baseline);
    const auto b = m.find(series);
    if (a == m.end() || b == m.end() || b->second.min <= 0) continue;
    log_sum += std::log(a->second.min / b->second.min);
    ++n;
  }
  return n ? std::exp(log_sum / n) : 0.0;
}

}  // namespace polymg::bench
