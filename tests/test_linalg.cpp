#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pauli.hpp"
#include "linalg/solve.hpp"
#include "linalg/types.hpp"
#include "linalg/vec.hpp"

using namespace hgp;
using la::cxd;
using la::CMat;
using la::CVec;

namespace {
CMat random_hermitian(std::size_t n, Rng& rng) {
  CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.normal();
    for (std::size_t j = i + 1; j < n; ++j) {
      a(i, j) = cxd{rng.normal(), rng.normal()};
      a(j, i) = std::conj(a(i, j));
    }
  }
  return a;
}
}  // namespace

TEST(Matrix, IdentityAndMultiply) {
  const CMat eye = CMat::identity(3);
  CMat a(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = cxd{double(i), double(j)};
  EXPECT_NEAR((eye * a).max_abs_diff(a), 0.0, 1e-15);
  EXPECT_NEAR((a * eye).max_abs_diff(a), 0.0, 1e-15);
}

TEST(Matrix, DaggerIsConjugateTranspose) {
  CMat a{{cxd{1, 2}, cxd{3, -1}}, {cxd{0, 1}, cxd{-2, 0}}};
  const CMat d = a.dagger();
  EXPECT_EQ(d(0, 1), std::conj(a(1, 0)));
  EXPECT_EQ(d(1, 0), std::conj(a(0, 1)));
}

TEST(Matrix, KronDimensionsAndValues) {
  const CMat x = la::pauli_matrix(la::Pauli::X);
  const CMat z = la::pauli_matrix(la::Pauli::Z);
  const CMat k = la::kron(z, x);
  ASSERT_EQ(k.rows(), 4u);
  // kron(Z, X): upper-left block X, lower-right block -X.
  EXPECT_EQ(k(0, 1), cxd(1, 0));
  EXPECT_EQ(k(2, 3), cxd(-1, 0));
}

TEST(Matrix, UnitaryAndHermitianChecks) {
  EXPECT_TRUE(la::pauli_matrix(la::Pauli::Y).is_unitary());
  EXPECT_TRUE(la::pauli_matrix(la::Pauli::Y).is_hermitian());
  CMat a{{1, 1}, {0, 1}};
  EXPECT_FALSE(a.is_unitary());
}

TEST(Vec, DotNormFidelity) {
  CVec a = {cxd{1, 0}, cxd{0, 1}};
  // (1, i) and (i, 1) are orthogonal under the conjugated inner product.
  CVec b = {cxd{0, 1}, cxd{1, 0}};
  EXPECT_NEAR(la::norm(a), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(std::abs(la::dot(a, b)), 0.0, 1e-12);
  la::normalize(a);
  EXPECT_NEAR(la::norm(a), 1.0, 1e-12);
  // A global phase does not change fidelity.
  CVec c = a;
  for (cxd& x : c) x *= std::polar(1.0, 0.77);
  EXPECT_NEAR(la::fidelity(a, c), 1.0, 1e-12);
}

TEST(Vec, PhaseInsensitiveDiff) {
  CVec a = {cxd{1, 0}, cxd{0.5, 0.25}};
  CVec b = a;
  const cxd phase = std::polar(1.0, 1.234);
  for (cxd& x : b) x *= phase;
  EXPECT_GT(la::max_abs_diff(a, b), 0.1);
  EXPECT_NEAR(la::max_abs_diff_up_to_phase(a, b), 0.0, 1e-12);
}

class EighSweep : public ::testing::TestWithParam<int> {};

TEST_P(EighSweep, ReconstructsMatrix) {
  Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const CMat a = random_hermitian(n, rng);
  const la::EigResult eg = la::eigh(a);
  ASSERT_EQ(eg.values.size(), n);
  // Ascending eigenvalues.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(eg.values[i - 1], eg.values[i] + 1e-12);
  // V is unitary.
  EXPECT_TRUE(eg.vectors.is_unitary(1e-8));
  // A = V D V†.
  CMat d(n, n);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = eg.values[i];
  const CMat rec = eg.vectors * d * eg.vectors.dagger();
  EXPECT_LT(rec.max_abs_diff(a), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, EighSweep, ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

TEST(Eigh, DegenerateSpectrum) {
  // Z ⊗ I has doubly degenerate eigenvalues ±1.
  const CMat a = la::kron(la::pauli_matrix(la::Pauli::Z), CMat::identity(2));
  const la::EigResult eg = la::eigh(a);
  EXPECT_NEAR(eg.values[0], -1.0, 1e-9);
  EXPECT_NEAR(eg.values[1], -1.0, 1e-9);
  EXPECT_NEAR(eg.values[2], 1.0, 1e-9);
  EXPECT_NEAR(eg.values[3], 1.0, 1e-9);
  EXPECT_TRUE(eg.vectors.is_unitary(1e-8));
}

// exp(-i t H) in closed form: a one-qubit Pauli sum H = v · σ squares to
// |v|² I, so exp(-i t H) = cos(t|v|) I - i sin(t|v|) H / |v|; commuting
// two-qubit Paulis exponentiate factor by factor.
TEST(Expm, OneQubitPauliSumMatchesClosedForm) {
  const double a = 0.3, b = -0.8, c = 0.5, t = 0.37;
  const CMat h = la::pauli_matrix(la::Pauli::X) * cxd{a, 0.0} +
                 la::pauli_matrix(la::Pauli::Y) * cxd{b, 0.0} +
                 la::pauli_matrix(la::Pauli::Z) * cxd{c, 0.0};
  const double v = std::sqrt(a * a + b * b + c * c);
  const CMat expected = CMat::identity(2) * cxd{std::cos(t * v), 0.0} +
                        h * cxd{0.0, -std::sin(t * v) / v};
  const CMat e = la::expm_ih(h, t);
  EXPECT_LT(e.max_abs_diff(expected), 1e-13);
  EXPECT_TRUE(e.is_unitary(1e-13));
}

TEST(Expm, CommutingTwoQubitPauliSumMatchesClosedForm) {
  const CMat zz = la::kron(la::pauli_matrix(la::Pauli::Z), la::pauli_matrix(la::Pauli::Z));
  const CMat xx = la::kron(la::pauli_matrix(la::Pauli::X), la::pauli_matrix(la::Pauli::X));
  const double a = 0.7, b = -1.3, t = 0.9;
  const CMat h = zz * cxd{a, 0.0} + xx * cxd{b, 0.0};
  const CMat eye = CMat::identity(4);
  const CMat expected = (eye * cxd{std::cos(t * a), 0.0} + zz * cxd{0.0, -std::sin(t * a)}) *
                        (eye * cxd{std::cos(t * b), 0.0} + xx * cxd{0.0, -std::sin(t * b)});
  const CMat e = la::expm_ih(h, t);
  EXPECT_LT(e.max_abs_diff(expected), 1e-13);
  EXPECT_TRUE(e.is_unitary(1e-13));
}

TEST(Expm, LargeNormScaling) {
  // exp(-i * 50 * X) should still be unitary and match the closed form.
  const CMat x = la::pauli_matrix(la::Pauli::X);
  const CMat expected =
      CMat::identity(2) * cxd{std::cos(50.0), 0.0} + x * cxd{0.0, -std::sin(50.0)};
  const CMat e = la::expm_ih(x, 50.0);
  EXPECT_LT(e.max_abs_diff(expected), 1e-13);
  EXPECT_TRUE(e.is_unitary(1e-13));
}

TEST(LuSolve, RecoversSolution) {
  Rng rng(3);
  const std::size_t n = 8;
  CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = cxd{rng.normal(), rng.normal()} + (i == j ? cxd{4.0, 0.0} : cxd{0, 0});
  CVec x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = cxd{rng.normal(), rng.normal()};
  const CVec b = a * x_true;
  const CVec x = la::lu_solve(a, b);
  EXPECT_LT(la::max_abs_diff(x, x_true), 1e-9);
}

TEST(Gmres, SolvesDiagonallyDominantSystem) {
  Rng rng(11);
  const std::size_t n = 40;
  std::vector<std::vector<double>> a(n, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i][j] = 0.1 * rng.normal();
    a[i][i] += 3.0;
  }
  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.normal();
  auto matvec = [&](const std::vector<double>& v) {
    std::vector<double> out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) out[i] += a[i][j] * v[j];
    return out;
  };
  std::vector<double> b = matvec(x_true);
  const la::GmresResult r = la::gmres(matvec, b, 400, 1e-12, 30);
  EXPECT_TRUE(r.converged);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::abs(r.x[i] - x_true[i]));
  EXPECT_LT(err, 1e-8);
}

TEST(Pauli, ParseRoundTrip) {
  const la::PauliString p = la::PauliString::parse("ZIXY");
  EXPECT_EQ(p.num_qubits(), 4u);
  EXPECT_EQ(p.str(), "ZIXY");
  EXPECT_EQ(p.op(0), la::Pauli::Y);  // rightmost char = qubit 0
  EXPECT_EQ(p.op(3), la::Pauli::Z);
  EXPECT_EQ(p.weight(), 3u);
}

TEST(Pauli, ApplyMatchesMatrix) {
  Rng rng(5);
  for (const char* s : {"X", "Y", "Z", "XY", "ZZ", "YXZ", "IZY"}) {
    const la::PauliString p = la::PauliString::parse(s);
    const std::size_t dim = std::size_t{1} << p.num_qubits();
    CVec v(dim);
    for (cxd& x : v) x = cxd{rng.normal(), rng.normal()};
    const CVec via_apply = p.apply(v);
    const CVec via_matrix = p.matrix() * v;
    EXPECT_LT(la::max_abs_diff(via_apply, via_matrix), 1e-12) << s;
  }
}

TEST(Pauli, DiagonalEnergies) {
  la::PauliSum h(2);
  h.add(0.5, "ZZ");
  h.add(-1.0, "IZ");  // Z on qubit 0
  EXPECT_TRUE(h.is_diagonal());
  EXPECT_NEAR(h.energy(0b00), 0.5 - 1.0, 1e-12);
  EXPECT_NEAR(h.energy(0b01), -0.5 + 1.0, 1e-12);  // qubit0=1
  EXPECT_NEAR(h.energy(0b11), 0.5 + 1.0, 1e-12);
  EXPECT_NEAR(h.energy(0b10), -0.5 - 1.0, 1e-12);  // qubit1=1: ZZ=-1, Z0=+1
  EXPECT_NEAR(h.min_energy(), -1.5, 1e-12);
  EXPECT_NEAR(h.max_energy(), 1.5, 1e-12);
}

TEST(Pauli, ExpectationOnBellState) {
  // |Φ+> = (|00> + |11>)/√2: <XX> = <ZZ> = 1, <ZI> = 0.
  CVec bell = {cxd{1 / std::sqrt(2.0), 0}, 0, 0, cxd{1 / std::sqrt(2.0), 0}};
  EXPECT_NEAR(la::PauliString::parse("XX").expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(la::PauliString::parse("ZZ").expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(la::PauliString::parse("ZI").expectation(bell), 0.0, 1e-12);
  EXPECT_NEAR(la::PauliString::parse("YY").expectation(bell), -1.0, 1e-12);
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(123), b(123);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(9);
  double mean = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) mean += c.uniform();
  mean /= n;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(77);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.discrete(w)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(double(hits[2]) / hits[0], 3.0, 0.4);
}
