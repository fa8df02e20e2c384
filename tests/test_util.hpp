// Shared test harness for the cqs suite:
//   - tolerance-aware state-vector comparison helpers,
//   - a temp-dir fixture so checkpoint/file tests are safe under `ctest -j`,
//   - seeded data generators for three dataset regimes (spiky QAOA-like,
//     dense supremacy-like, sparse early-simulation) so property tests are
//     deterministic.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/rng.hpp"
#include "qsim/circuit.hpp"

namespace cqs::test {

/// Randomized circuit over all three partition segments: single-qubit
/// gates (including parameterized rotations), controlled pairs, SWAPs,
/// and Toffolis on uniformly drawn qubits. Deterministic in `seed`.
/// Shared by the differential and fuzz suites.
inline qsim::Circuit random_circuit(int qubits, std::size_t gates,
                                    std::uint64_t seed) {
  Rng rng(seed);
  qsim::Circuit c(qubits);
  auto qubit = [&] { return static_cast<int>(rng.next_below(qubits)); };
  auto distinct_from = [&](int a) {
    int q = qubit();
    while (q == a) q = qubit();
    return q;
  };
  for (std::size_t i = 0; i < gates; ++i) {
    const int target = qubit();
    switch (rng.next_below(10)) {
      case 0: c.h(target); break;
      case 1: c.x(target); break;
      case 2: c.t(target); break;
      case 3: c.rz(target, rng.next_double() * 3.0); break;
      case 4: c.ry(target, rng.next_double() * 3.0); break;
      case 5: c.cx(distinct_from(target), target); break;
      case 6: c.cz(distinct_from(target), target); break;
      case 7: c.cphase(distinct_from(target), target,
                       rng.next_double() * 3.0); break;
      case 8: c.swap(distinct_from(target), target); break;
      default: {
        const int c0 = distinct_from(target);
        int c1 = qubit();
        while (c1 == target || c1 == c0) c1 = qubit();
        c.ccx(c0, c1, target);
        break;
      }
    }
  }
  return c;
}

// The seeded generators moved to common/fixtures.hpp so the benches and
// golden-blob tests share exactly these inputs; the test-local names stay.
using fixtures::dense_supremacy_like;
using fixtures::sparse_like;
using fixtures::spiky_qaoa_like;

/// Tolerance-aware comparison of two raw states. Use tol = 0 for
/// bit-identical (lossless / determinism tests).
inline ::testing::AssertionResult states_close(std::span<const double> a,
                                               std::span<const double> b,
                                               double tol) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(a[i] - b[i]);
    if (!(diff <= tol)) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i]
             << " (|diff| = " << diff << " > " << tol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

#define CQS_EXPECT_STATES_CLOSE(a, b, tol) \
  EXPECT_TRUE(::cqs::test::states_close((a), (b), (tol)))

/// Creates a unique directory under the system temp dir for the lifetime of
/// each test, so file-writing tests (checkpoints) never collide when the
/// suite runs with `ctest -j`.
class TempDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf = std::string("cqs_") + info->test_suite_name() + "_" +
                       info->name();
    for (auto& ch : leaf) {
      if (ch == '/' || ch == '\\') ch = '_';
    }
    dir_ = std::filesystem::temp_directory_path() / leaf;
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override {
    std::error_code ec;  // best-effort cleanup; never fail the test
    std::filesystem::remove_all(dir_, ec);
  }

  /// Absolute path for a file inside the per-test directory.
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace cqs::test
