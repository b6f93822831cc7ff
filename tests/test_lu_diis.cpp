// Tests for linalg/lu.hpp (general LU solver) and scf/diis.hpp (Pulay
// mixing), including an SCF integration test showing the DIIS cycle lands
// on the tightly converged fixed point.

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/structures.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lu.hpp"
#include "scf/diis.hpp"
#include "scf/scf_solver.hpp"

namespace {

using namespace aeqp;
using namespace aeqp::linalg;

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-1, 1);
  return m;
}

TEST(Lu, SolvesHandComputedSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3;
  const Vector x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

class LuProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuProperty, ResidualSmallForRandomSystems) {
  Rng rng(400 + GetParam());
  const Matrix a = random_matrix(GetParam(), rng);
  Vector b(GetParam());
  for (auto& v : b) v = rng.uniform(-2, 2);
  const Vector x = solve_linear(a, b);
  const Vector ax = matvec(a, x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty, ::testing::Values(1, 2, 5, 13, 40));

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
  const Vector x = solve_linear(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuDecomposition{a}, Error);
}

TEST(Lu, DeterminantMatchesKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 3; a(0, 1) = 1; a(1, 0) = 4; a(1, 1) = 2;
  EXPECT_NEAR(LuDecomposition(a).determinant(), 2.0, 1e-12);
  EXPECT_NEAR(LuDecomposition(Matrix::identity(5)).determinant(), 1.0, 1e-14);
}

TEST(Lu, DeterminantSignTracksPermutations) {
  Matrix a(2, 2);
  a(0, 1) = 1; a(1, 0) = 1;  // swap matrix, det = -1
  EXPECT_NEAR(LuDecomposition(a).determinant(), -1.0, 1e-14);
}

TEST(Diis, ResidualVanishesAtSelfConsistency) {
  // If [H, P S] = 0 (commuting), the residual is zero: take H and S = I and
  // P built from H's eigenvectors.
  Rng rng(9);
  Matrix h = random_matrix(6, rng);
  h.symmetrize();
  const auto sol = linalg::symmetric_eigen(h);
  Matrix p(6, 6);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t mu = 0; mu < 6; ++mu)
      for (std::size_t nu = 0; nu < 6; ++nu)
        p(mu, nu) += 2.0 * sol.eigenvectors(mu, i) * sol.eigenvectors(nu, i);
  const Matrix e = scf::DiisMixer::residual(h, p, Matrix::identity(6));
  EXPECT_LT(e.max_abs(), 1e-10);
}

TEST(Diis, FirstCallReturnsInputUnchanged) {
  scf::DiisMixer mixer(4);
  Rng rng(10);
  Matrix h = random_matrix(4, rng);
  h.symmetrize();
  const Matrix p = Matrix::identity(4);
  const Matrix out = mixer.extrapolate(h, p, Matrix::identity(4));
  EXPECT_LT(out.max_abs_diff(h), 1e-15);
  EXPECT_EQ(mixer.history_size(), 1u);
}

TEST(Diis, HistoryIsBounded) {
  scf::DiisMixer mixer(3);
  Rng rng(11);
  const Matrix s = Matrix::identity(5);
  for (int k = 0; k < 10; ++k) {
    Matrix h = random_matrix(5, rng);
    h.symmetrize();
    (void)mixer.extrapolate(h, Matrix::identity(5), s);
  }
  EXPECT_LE(mixer.history_size(), 3u);
}

TEST(Diis, CoefficientsSumToOneImplicitly) {
  // Extrapolating from a history of identical Hamiltonians returns that
  // Hamiltonian (any convex combination of equal entries).
  scf::DiisMixer mixer(4);
  Rng rng(12);
  Matrix h = random_matrix(4, rng);
  h.symmetrize();
  Matrix p = random_matrix(4, rng);
  p.symmetrize();
  const Matrix s = Matrix::identity(4);
  (void)mixer.extrapolate(h, p, s);
  // A second identical pair makes B singular; the mixer must recover
  // gracefully and still return a valid Hamiltonian.
  const Matrix out = mixer.extrapolate(h, p, s);
  EXPECT_LT(out.max_abs_diff(h), 1e-10);
}

TEST(Diis, RejectsTinyHistory) {
  EXPECT_THROW(scf::DiisMixer(1), Error);
}

// The default-tolerance DIIS cycle and a tolerance-1e-9 run land on the
// same fixed point.
TEST(ScfDiis, ConvergesWaterToTheTightFixedPoint) {
  scf::ScfOptions diis;
  diis.tier = basis::BasisTier::Minimal;
  diis.grid.radial_points = 36;
  diis.grid.angular_degree = 9;
  diis.poisson.radial_points = 72;
  diis.density_tolerance = 1e-6;

  scf::ScfOptions tight = diis;
  tight.density_tolerance = 1e-9;

  const auto mol = core::water();
  const auto r_diis = scf::ScfSolver(mol, diis).run();
  const auto r_tight = scf::ScfSolver(mol, tight).run();
  ASSERT_TRUE(r_diis.converged);
  ASSERT_TRUE(r_tight.converged);
  EXPECT_NEAR(r_diis.total_energy, r_tight.total_energy, 1e-5);
  EXPECT_LE(r_diis.iterations, r_tight.iterations);
}

}  // namespace
