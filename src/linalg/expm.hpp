#pragma once

#include "linalg/matrix.hpp"

namespace hgp::la {

/// exp(-i t H) for Hermitian H, computed from the eigendecomposition — exact
/// up to the eigensolver tolerance and unconditionally unitary.
CMat expm_ih(const CMat& h, double t);

}  // namespace hgp::la
