#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"

namespace hgp::backend {

/// The four machines of the paper's Table I, with its calibration numbers.
/// (Table I prints T1/T2 in "ms"; the values match public IBM calibration
/// data in µs, so the unit is treated as a typo — see DESIGN.md.)
FakeBackend make_auckland();
FakeBackend make_toronto();
FakeBackend make_montreal();
FakeBackend make_guadalupe();

/// Lookup by name ("auckland", "ibmq_toronto", ...).
FakeBackend make_backend(const std::string& name);

}  // namespace hgp::backend
