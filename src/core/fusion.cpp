#include "core/fusion.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/statevector.hpp"

namespace hgp::core {

using la::CMat;

namespace {

/// Sorted union of two sorted index lists.
std::vector<std::size_t> support_union(const std::vector<std::size_t>& a,
                                       const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<std::size_t> sorted(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

CMat compose_fused(const FusePartView* parts, std::size_t n,
                   const std::vector<std::size_t>& support) {
  HGP_REQUIRE(n >= 1, "compose_fused: empty run");
  // The row-major accumulator as a 2m-qubit state: entry (r, c) is amplitude
  // (r << m) | c, column bits low and row bits high. Left-multiplying by a
  // part embedded on the support applies the part to the row bits of every
  // column at once, so each part runs through the scalar gate kernel on
  // qubits m + (its support positions).
  const std::size_t m = support.size();
  const std::size_t dim = std::size_t{1} << m;
  sim::Statevector acc(2 * m);
  for (std::size_t r = 1; r < dim; ++r) acc.data()[(r << m) | r] = 1.0;
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    rows.clear();
    for (const std::size_t q : *parts[i].local) {
      const auto it = std::lower_bound(support.begin(), support.end(), q);
      HGP_REQUIRE(it != support.end() && *it == q,
                  "compose_fused: constituent qubit outside the support");
      rows.push_back(m + static_cast<std::size_t>(it - support.begin()));
    }
    acc.apply_matrix(*parts[i].u, rows);
  }
  CMat out(dim, dim);
  out.data() = std::move(acc.data());
  return out;
}

FusionResult fuse_program(const CompiledProgram& cp, const FusionOptions& opt) {
  FusionResult out;
  out.stats.ops_in = cp.timeline.size();

  // Greedy order-preserving grouping: extend the current run while the
  // support union stays within the width bound, flush otherwise. No
  // commutation analysis — apply order is preserved exactly. Widths 0 and 1
  // put every block in its own group.
  std::vector<FusedSlot> groups;
  std::vector<std::vector<std::size_t>> group_support;
  for (std::size_t s = 0; s < cp.timeline.size(); ++s) {
    const std::vector<std::size_t> local = sorted(cp.timeline[s].local);
    if (opt.max_qubits >= 2 && !groups.empty()) {
      std::vector<std::size_t> u = support_union(group_support.back(), local);
      if (u.size() <= opt.max_qubits) {
        groups.back().sources.push_back(s);
        group_support.back() = std::move(u);
        continue;
      }
    }
    groups.push_back(FusedSlot{{s}});
    group_support.push_back(local);
  }

  // Materialize the fused slots.
  out.timeline.reserve(groups.size());
  out.slots.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const FusedSlot& grp = groups[g];
    if (grp.sources.size() == 1) {
      out.timeline.push_back(cp.timeline[grp.sources[0]]);
      out.slots.push_back(grp);
      continue;
    }

    out.stats.merged_runs += 1;
    out.stats.max_run_len = std::max(out.stats.max_run_len, grp.sources.size());
    const std::vector<std::size_t>& support = group_support[g];

    Scheduled fused;
    fused.local = support;
    fused.idle_before_dt.assign(support.size(), 0);
    std::vector<FusePartView> parts;
    parts.reserve(grp.sources.size());
    for (std::size_t src : grp.sources)
      parts.push_back(FusePartView{&cp.timeline[src].block.unitary, &cp.timeline[src].local});
    fused.block.unitary = compose_fused(parts.data(), parts.size(), support);
    fused.block.qubits.reserve(support.size());
    for (std::size_t lq : support) fused.block.qubits.push_back(cp.touched[lq]);
    fused.block.virtual_only =
        std::all_of(grp.sources.begin(), grp.sources.end(), [&](std::size_t src) {
          return cp.timeline[src].block.virtual_only;
        });
    out.timeline.push_back(std::move(fused));
    out.slots.push_back(grp);
  }
  out.stats.ops_out = out.timeline.size();
  return out;
}

}  // namespace hgp::core
