// Determinism proofs for the banded-LU kernel (DESIGN.md §14): the blocked
// elimination factorize() picks for wide bands must give the bits of the
// unblocked reference loop — on random bands with ragged panel and quad
// tails, on the stage matrices of every level-6 combination grid, and on
// either side of the bandwidth threshold.  Also pins that the retired
// kernel-policy/inner-team fields and flags are refused, not misread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "../examples/solver_cli.hpp"
#include "core/marshal.hpp"
#include "grid/combination.hpp"
#include "linalg/banded.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "svc/job.hpp"
#include "transport/system.hpp"

namespace {

using namespace mg::linalg;
using mg::support::Xoshiro256;

bool bit_equal(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Every in-band entry of two factorised matrices, compared as bits.
void expect_same_factors(const BandedMatrix& a, const BandedMatrix& b, const std::string& what) {
  const std::size_t n = a.size(), hb = a.half_bandwidth();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
      const double x = a.at(i, j), y = b.at(i, j);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0) << what << " (" << i << "," << j << ")";
    }
  }
}

BandedMatrix random_dominant_band(std::size_t n, std::size_t hb, Xoshiro256& rng) {
  BandedMatrix m(n, hb);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = (i > hb ? i - hb : 0); j < std::min(n, i + hb + 1); ++j) {
      m.set(i, j, i == j ? 2.0 * static_cast<double>(hb) + 1.0 + rng.uniform01()
                         : rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

Vec random_vec(std::size_t n, Xoshiro256& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Factorises copies of `m` both ways and expects identical factors and
/// identical solutions of m x = b.
void expect_blocked_matches_unblocked(const BandedMatrix& m, const Vec& b,
                                      const std::string& what) {
  BandedMatrix unblocked = m, blocked = m;
  unblocked.factorize_unblocked();
  blocked.factorize_blocked();
  expect_same_factors(unblocked, blocked, what);
  Vec x_unblocked, x_blocked;
  unblocked.solve(b, x_unblocked);
  blocked.solve(b, x_blocked);
  EXPECT_TRUE(bit_equal(x_unblocked, x_blocked)) << what;
}

// "Tiled" is the blocked elimination, "scalar" the unblocked reference loop.
TEST(TiledKernels, BandedFactorizeBitwiseMatchesScalar) {
  Xoshiro256 rng(31);
  const std::size_t t = BandedMatrix::kBlockedMinHalfBandwidth;
  // n straddles the 64-step panel (63/64/65, 127..129) and, past each panel,
  // every remainder of the four-row trailing quads; hb covers hb >= n, the
  // narrow bands, and the threshold's neighbourhood.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 9u, 17u, 40u, 63u, 64u, 65u, 66u, 67u, 68u, 101u,
                              127u, 128u, 129u, 130u, 131u, 200u}) {
    for (const std::size_t hb : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
                                 t - 1, t, t + 1, std::size_t{63}, std::size_t{64},
                                 std::size_t{70}}) {
      expect_blocked_matches_unblocked(random_dominant_band(n, hb, rng), random_vec(n, rng),
                                       "n=" + std::to_string(n) + " hb=" + std::to_string(hb));
    }
  }
}

TEST(BlockedLu, AgreesBitwiseWithUnblockedOnEveryLevel6Grid) {
  // I - gamma*h*J as the cached banded stage solver builds it, for each
  // grid of the level-6 combination (half-bandwidths 3 .. 255) and two step
  // sizes the controller takes.
  Xoshiro256 rng(7);
  for (const auto& term : mg::grid::combination_terms(2, 6)) {
    const mg::transport::TransportSystem system(term.grid, mg::transport::TransportProblem{});
    const std::size_t n = system.dimension();
    for (const double gamma_h : {1e-3, 2.5e-2}) {
      BandedMatrix stage(n, term.grid.interior_x());
      stage.assign_shifted_csr(system.jacobian(), 1.0, -gamma_h);
      expect_blocked_matches_unblocked(stage, random_vec(n, rng),
                                       term.grid.name() + " gamma_h=" + std::to_string(gamma_h));
    }
  }
}

TEST(BlockedLu, FactorizeGivesTheReferenceBitsOnEitherSideOfTheThreshold) {
  Xoshiro256 rng(43);
  const std::size_t t = BandedMatrix::kBlockedMinHalfBandwidth;
  ASSERT_GT(t, 1u);
  for (const std::size_t hb : {t - 1, t, 2 * t + 1}) {
    for (const std::size_t n : {hb / 2 + 1, 3 * hb + 2, std::size_t{300}}) {
      const BandedMatrix m = random_dominant_band(n, hb, rng);
      BandedMatrix picked = m, reference = m;
      picked.factorize();
      reference.factorize_unblocked();
      EXPECT_TRUE(picked.factorized());
      expect_same_factors(reference, picked,
                          "n=" + std::to_string(n) + " hb=" + std::to_string(hb));
    }
  }
}

TEST(BlockedLu, BothEliminationsRejectAZeroPivot) {
  for (const std::size_t hb : {std::size_t{2}, BandedMatrix::kBlockedMinHalfBandwidth}) {
    BandedMatrix m(2 * hb + 3, hb);
    for (std::size_t i = 0; i < m.size(); ++i) m.set(i, i, i == hb + 1 ? 0.0 : 1.0);
    BandedMatrix unblocked = m, blocked = m;
    EXPECT_THROW(unblocked.factorize_unblocked(), std::runtime_error) << "hb=" << hb;
    EXPECT_THROW(blocked.factorize_blocked(), std::runtime_error) << "hb=" << hb;
  }
}

// ---- the retired kernel-policy / inner-team fields -----------------------------------

/// Inserts the two i32 fields (kernel policy, inner-thread count) that work
/// units and job specs used to carry at byte offset `at`.
std::vector<std::uint8_t> with_retired_kernel_fields(std::vector<std::uint8_t> bytes,
                                                      std::size_t at, std::int32_t policy,
                                                      std::int32_t inner) {
  mg::support::ByteWriter w;
  w.write_i32(policy);
  w.write_i32(inner);
  const auto extra = w.take();
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), extra.begin(), extra.end());
  return bytes;
}

TEST(KernelMarshal, WorkItemInThePreviousLayoutIsADecodeError) {
  mg::mw::WorkItem item{};
  item.index = 7;
  item.root = 2;
  item.lx = 3;
  item.ly = 4;
  const auto bytes = mg::mw::encode_work_item(item);
  // The fields sat after warm_start: index(8) + root/lx/ly(12) + seven
  // problem f64s(56) + scheme/solver(8) + two tolerances(16) + max_iter(8)
  // + cache_stage/warm_start(8).
  const std::size_t at = 8 + 12 + 56 + 8 + 16 + 8 + 8;
  ASSERT_LT(at, bytes.size());
  for (const std::int32_t policy : {0, 1}) {
    for (const std::int32_t inner : {1, 4}) {
      EXPECT_THROW(
          mg::mw::decode_work_item(with_retired_kernel_fields(bytes, at, policy, inner)),
          mg::support::DecodeError)
          << "policy=" << policy << " inner=" << inner;
    }
  }
}

TEST(KernelMarshal, JobSpecInThePreviousLayoutIsADecodeError) {
  mg::svc::JobSpec spec;
  spec.root = 2;
  spec.level = 4;
  spec.tag = "old-client";
  spec.pipeline_depth = 3;
  const auto bytes = mg::svc::encode_job_spec(spec);
  // The fields sat between the tag and the trailing i32 pipeline_depth.  A
  // reader that took the policy for pipeline_depth would accept 0 or 1.
  ASSERT_GE(bytes.size(), 4u);
  for (const std::int32_t policy : {0, 1}) {
    EXPECT_THROW(mg::svc::decode_job_spec(
                     with_retired_kernel_fields(bytes, bytes.size() - 4, policy, 1)),
                 mg::support::DecodeError)
        << "policy=" << policy;
  }
}

TEST(KernelMarshal, TrailingBytesAfterAResultItemAreADecodeError) {
  mg::mw::ResultItem item{};
  item.index = 3;
  item.node_data = {1.0, 2.0};
  auto bytes = mg::mw::encode_result_item(item);
  bytes.push_back(0);
  EXPECT_THROW(mg::mw::decode_result_item(bytes), mg::support::DecodeError);
}

TEST(KernelCli, RejectsBadKernelFlags) {
  // The kernel-policy and inner-team flags are gone: they must be refused as
  // unknown, in master and worker mode alike, never silently ignored.
  for (const char* flag : {"--kernels=tiled", "--kernels=scalar", "--inner-threads=1",
                           "--inner-threads=4"}) {
    const char* argv[] = {"solver", "2", "4", "1e-3", flag};
    const auto cli = mg::examples::parse_solver_cli(5, argv);
    EXPECT_FALSE(cli.ok) << flag;
    EXPECT_NE(cli.error.find("unknown flag"), std::string::npos) << cli.error;

    const char* worker_argv[] = {"solver", "--connect=127.0.0.1:9000", flag};
    EXPECT_FALSE(mg::examples::parse_solver_cli(3, worker_argv).ok) << flag;
  }
}

}  // namespace
