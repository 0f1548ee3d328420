#include "core/fusion.hpp"

#include <algorithm>

#include "common/error.hpp"

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

CMat embed_on_support(const CMat& u, const std::vector<std::size_t>& local,
                      const std::vector<std::size_t>& support) {
  const std::size_t k = local.size();
  const std::size_t m = support.size();
  HGP_REQUIRE(u.rows() == (std::size_t{1} << k), "embed_on_support: size mismatch");
  if (local == support) return u;  // already in the fused basis

  // pos[j] = support position of the constituent's sub-index bit j.
  std::size_t pos[8];
  std::uint64_t target_mask = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto it = std::lower_bound(support.begin(), support.end(), local[j]);
    HGP_REQUIRE(it != support.end() && *it == local[j],
                "embed_on_support: constituent qubit outside the support");
    pos[j] = static_cast<std::size_t>(it - support.begin());
    target_mask |= std::uint64_t{1} << pos[j];
  }

  const std::size_t dim = std::size_t{1} << m;
  CMat big = CMat::zeros(dim, dim);
  for (std::uint64_t r = 0; r < dim; ++r) {
    std::uint64_t tr = 0;
    for (std::size_t j = 0; j < k; ++j) tr |= ((r >> pos[j]) & 1u) << j;
    const std::uint64_t rest = r & ~target_mask;
    for (std::uint64_t ts = 0; ts < (std::uint64_t{1} << k); ++ts) {
      std::uint64_t s = rest;
      for (std::size_t j = 0; j < k; ++j) s |= ((ts >> j) & 1u) << pos[j];
      big(r, s) = u(tr, ts);
    }
  }
  return big;
}

CMat compose_fused(const FusePartView* parts, std::size_t n,
                   const std::vector<std::size_t>& support) {
  HGP_REQUIRE(n >= 1, "compose_fused: empty run");
  CMat acc = embed_on_support(*parts[0].u, *parts[0].local, support);
  const std::size_t m = support.size();
  const std::size_t dim = std::size_t{1} << m;
  for (std::size_t i = 1; i < n; ++i) {
    const CMat& u = *parts[i].u;
    const std::vector<std::size_t>& local = *parts[i].local;
    const std::size_t k = local.size();
    if (local == support) {  // full-width part: plain left-multiply
      acc = u * acc;
      continue;
    }
    // Narrow part: apply it to each column of the accumulator in place —
    // the left-multiply E(u)·acc without materializing the embedded matrix
    // (the delta-compile path re-composes per dirty lane, so this runs in
    // the batch hot loop).
    std::size_t pos[8];
    std::uint64_t target_mask = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto it = std::lower_bound(support.begin(), support.end(), local[j]);
      HGP_REQUIRE(it != support.end() && *it == local[j],
                  "compose_fused: constituent qubit outside the support");
      pos[j] = static_cast<std::size_t>(it - support.begin());
      target_mask |= std::uint64_t{1} << pos[j];
    }
    const std::size_t pdim = std::size_t{1} << k;
    la::cxd a[8];
    std::uint64_t idx[8];
    for (std::uint64_t base = 0; base < dim; ++base) {
      if ((base & target_mask) != 0) continue;
      for (std::uint64_t t = 0; t < pdim; ++t) {
        std::uint64_t r = base;
        for (std::size_t j = 0; j < k; ++j) r |= ((t >> j) & 1u) << pos[j];
        idx[t] = r;
      }
      for (std::size_t c = 0; c < dim; ++c) {
        for (std::uint64_t t = 0; t < pdim; ++t) a[t] = acc(idx[t], c);
        for (std::uint64_t r = 0; r < pdim; ++r) {
          la::cxd s = u(r, 0) * a[0];
          for (std::uint64_t t = 1; t < pdim; ++t) s += u(r, t) * a[t];
          acc(idx[r], c) = s;
        }
      }
    }
  }
  return acc;
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
