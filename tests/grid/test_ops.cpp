#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "polymg/common/parallel.hpp"
#include "polymg/grid/ops.hpp"

namespace polymg::grid {
namespace {

TEST(Ops, MakeGridZeroFilled) {
  const Box dom = Box::cube(2, 0, 9);
  Buffer b = make_grid(dom);
  EXPECT_EQ(b.size(), 100u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
}

TEST(Ops, FillRegionAndNorms) {
  const Box dom = Box::cube(2, 0, 4);
  Buffer b = make_grid(dom);
  View v = View::over(b.data(), dom);
  fill_region(v, Box::cube(2, 1, 3), [](index_t i, index_t j, index_t) {
    return static_cast<double>(i * 10 + j);
  });
  EXPECT_EQ(v.at2(2, 3), 23.0);
  EXPECT_EQ(v.at2(0, 0), 0.0);  // outside region untouched
  EXPECT_EQ(max_norm(v, dom), 33.0);
  EXPECT_NEAR(l2_norm(v, Box{{1, 1}, {1, 2}}), std::sqrt(11. * 11 + 12 * 12),
              1e-12);
}

TEST(Ops, CopyAndDiff) {
  const Box dom = Box::cube(3, 0, 3);
  Buffer a = make_grid(dom), b = make_grid(dom);
  View va = View::over(a.data(), dom), vb = View::over(b.data(), dom);
  fill_region(va, dom, [](index_t i, index_t j, index_t k) {
    return static_cast<double>(i + j + k);
  });
  copy_region(vb, va, dom);
  EXPECT_EQ(max_diff(va, vb, dom), 0.0);
  vb.at3(1, 1, 1) += 0.5;
  EXPECT_EQ(max_diff(va, vb, dom), 0.5);
}

// ---------------------------------------------------------------------
// The parallel row walker: regions above kForkGrain, at 1/2/4 threads,
// against the point-wise reference semantics (load promotes to double,
// store rounds once).
// ---------------------------------------------------------------------

/// A buffer of either dtype over `dom`, every element set from a hash of
/// its flat index and `salt` (distinct, non-round values).
struct Field {
  Box dom;
  std::optional<Buffer> f64;
  std::optional<BufferF32> f32;
  View v;

  Field(const Box& d, DType t, double salt) : dom(d) {
    const auto n = static_cast<std::size_t>(d.count());
    if (t == DType::F64) {
      f64.emplace(n);
      v = View::over(f64->data(), d);
    } else {
      f32.emplace(n);
      v = View::over(f32->data(), d);
    }
    for (std::size_t i = 0; i < n; ++i) {
      v.store(static_cast<index_t>(i),
              1e3 * std::sin(0.37 * static_cast<double>(i) + salt) / 7.0);
    }
  }

  std::size_t bytes() const {
    return f64 ? f64->size() * sizeof(double) : f32->size() * sizeof(float);
  }
  const void* data() const {
    return f64 ? static_cast<const void*>(f64->data())
               : static_cast<const void*>(f32->data());
  }
  bool same_bits(const Field& o) const {
    return bytes() == o.bytes() && std::memcmp(data(), o.data(), bytes()) == 0;
  }
};

/// Point-wise reference loop over `region` (2-d or 3-d).
template <typename Fn>
void for_each_point_ref(const Box& region, Fn&& fn) {
  const bool three = region.ndim() == 3;
  for (index_t i = region.dim(0).lo; i <= region.dim(0).hi; ++i) {
    for (index_t j = region.dim(1).lo; j <= region.dim(1).hi; ++j) {
      if (!three) {
        fn(std::array<index_t, 3>{i, j, 0});
        continue;
      }
      for (index_t k = region.dim(2).lo; k <= region.dim(2).hi; ++k) {
        fn(std::array<index_t, 3>{i, j, k});
      }
    }
  }
}

/// Offset sub-boxes above the grain: the region sits strictly inside
/// both views, whose domains differ (so origins and strides differ).
struct BigCase {
  Box dst_dom, src_dom, region;
};

std::vector<BigCase> big_cases() {
  return {
      {Box{{-4, 295}, {0, 203}}, Box{{3, 300}, {-9, 190}},
       Box{{7, 290}, {3, 180}}},
      {Box::cube(3, 0, 40), Box{{-2, 39}, {1, 44}, {2, 41}},
       Box{{2, 38}, {3, 39}, {3, 37}}},
  };
}

class ThreadCounts : public ::testing::TestWithParam<int> {
protected:
  void SetUp() override { prev_ = set_num_threads(GetParam()); }
  void TearDown() override { set_num_threads(prev_); }
  int prev_ = 1;
};

TEST_P(ThreadCounts, CopyAndAddMatchPointwiseReference) {
  const DType kinds[][2] = {{DType::F64, DType::F64},
                            {DType::F64, DType::F32},
                            {DType::F32, DType::F64}};
  for (const BigCase& c : big_cases()) {
    ASSERT_GE(c.region.count(), kForkGrain);
    for (const auto& k : kinds) {
      const DType dt = k[1], st = k[0];  // {src, dst}
      const Field src(c.src_dom, st, 0.5);
      Field got(c.dst_dom, dt, 1.5), want(c.dst_dom, dt, 1.5);
      copy_region(got.v, src.v, c.region);
      for_each_point_ref(c.region, [&](const std::array<index_t, 3>& p) {
        want.v.store_at(p, src.v.load_at(p));
      });
      EXPECT_TRUE(got.same_bits(want))
          << "copy ndim " << c.region.ndim() << " " << to_string(st) << "->"
          << to_string(dt);

      Field got_add(c.dst_dom, dt, 2.5), want_add(c.dst_dom, dt, 2.5);
      add_region(got_add.v, src.v, c.region);
      for_each_point_ref(c.region, [&](const std::array<index_t, 3>& p) {
        want_add.v.store_at(p, want_add.v.load_at(p) + src.v.load_at(p));
      });
      EXPECT_TRUE(got_add.same_bits(want_add))
          << "add ndim " << c.region.ndim() << " " << to_string(st) << "->"
          << to_string(dt);
    }
  }
}

TEST_P(ThreadCounts, MaximaPropagateNaNFromLastRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const BigCase& c : big_cases()) {
    Field a(c.dst_dom, DType::F64, 0.25), b(c.dst_dom, DType::F64, 0.25);
    // A large value in the region's first point (thread 0's rows) would
    // win any max that drops the NaN; the NaN sits at the region's last
    // point, in the last thread's rows.
    std::array<index_t, 3> first{}, last{};
    for (int d = 0; d < c.region.ndim(); ++d) {
      first[d] = c.region.dim(d).lo;
      last[d] = c.region.dim(d).hi;
    }
    a.v.store_at(first, 1e30);
    EXPECT_EQ(max_norm(a.v, c.region), 1e30);
    EXPECT_EQ(max_diff(a.v, b.v, c.region),
              std::abs(1e30 - b.v.load_at(first)));
    a.v.store_at(last, nan);
    EXPECT_TRUE(std::isnan(max_norm(a.v, c.region)));
    EXPECT_TRUE(std::isnan(max_diff(a.v, b.v, c.region)));
    EXPECT_TRUE(std::isnan(max_diff(b.v, a.v, c.region)));
  }
}

TEST_P(ThreadCounts, CloneAboveGrainIsBitExact) {
  const std::size_t n = static_cast<std::size_t>(3 * kForkGrain + 17);
  Buffer a(n);
  BufferF32 f(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::cos(static_cast<double>(i)) * 1e-3;
    f[i] = static_cast<float>(a[i]);
  }
  const Buffer ac = a.clone();
  const BufferF32 fc = f.clone();
  ASSERT_EQ(ac.size(), n);
  ASSERT_EQ(fc.size(), n);
  EXPECT_EQ(0, std::memcmp(a.data(), ac.data(), n * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(f.data(), fc.data(), n * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(Ops, ThreadCounts, ::testing::Values(1, 2, 4));

TEST(Ops, ForkRuleOpensOneRegionOnlyWhereAllowed) {
  const BigCase c = big_cases()[0];
  Field src(c.src_dom, DType::F64, 0.5), dst(c.dst_dom, DType::F64, 1.5);
  const auto regions = [](auto&& fn) {
    const std::uint64_t before = parallel_regions_entered();
    fn();
    return parallel_regions_entered() - before;
  };
  EXPECT_EQ(regions([&] { copy_region(dst.v, src.v, c.region); }), 1u);
  EXPECT_EQ(regions([&] { add_region(dst.v, src.v, c.region); }), 1u);
  EXPECT_EQ(regions([&] { max_norm(dst.v, c.region); }), 1u);
  EXPECT_EQ(regions([&] { max_diff(dst.v, src.v, c.region); }), 1u);
  // Serial by contract: executor-internal copies, summation order,
  // stateful generators.
  EXPECT_EQ(regions([&] {
              copy_region(dst.v, src.v, c.region, Fork::Never);
            }),
            0u);
  EXPECT_EQ(regions([&] { l2_norm(dst.v, c.region); }), 0u);
  EXPECT_EQ(regions([&] { fill_region(dst.v, c.region, 1.0); }), 0u);
  // Below the grain nothing forks.
  const Box small{{0, 9}, {0, 9}};
  EXPECT_EQ(regions([&] { copy_region(dst.v, src.v, small); }), 0u);
}

}  // namespace
}  // namespace polymg::grid
