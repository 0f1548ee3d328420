#include "mitigation/cvar.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace hgp::mit {

namespace {
struct Entry {
  double value;
  double weight;
};

double cvar_over_entries(std::vector<Entry> entries, double alpha) {
  HGP_REQUIRE(alpha > 0.0 && alpha <= 1.0, "cvar: alpha must be in (0, 1]");
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.value > b.value; });
  double total = 0.0;
  for (const Entry& e : entries) total += std::max(e.weight, 0.0);
  HGP_REQUIRE(total > 0.0, "cvar: no positive weight");
  const double budget = alpha * total;

  double used = 0.0, acc = 0.0;
  for (const Entry& e : entries) {
    const double w = std::max(e.weight, 0.0);
    if (w == 0.0) continue;
    const double take = std::min(w, budget - used);
    acc += take * e.value;
    used += take;
    if (used >= budget - 1e-15) break;
  }
  return acc / budget;
}
}  // namespace

double cvar_from_counts(const sim::Counts& counts,
                        const std::function<double(std::uint64_t)>& value, double alpha) {
  std::vector<Entry> entries;
  entries.reserve(counts.size());
  for (const auto& [bits, n] : counts)
    entries.push_back(Entry{value(bits), static_cast<double>(n)});
  return cvar_over_entries(std::move(entries), alpha);
}

double cvar_from_quasi(const QuasiDistribution& quasi,
                       const std::function<double(std::uint64_t)>& value, double alpha) {
  std::vector<Entry> entries;
  entries.reserve(quasi.probs.size());
  for (const auto& [bits, p] : quasi.probs) entries.push_back(Entry{value(bits), p});
  return cvar_over_entries(std::move(entries), alpha);
}

double cvar_from_distribution(const std::vector<double>& p,
                              const std::vector<double>& values, double alpha) {
  HGP_REQUIRE(p.size() == values.size(),
              "cvar_from_distribution: weight/value size mismatch");
  std::vector<Entry> entries;
  entries.reserve(p.size());
  for (std::size_t j = 0; j < p.size(); ++j)
    if (p[j] > 0.0) entries.push_back(Entry{values[j], p[j]});
  return cvar_over_entries(std::move(entries), alpha);
}

}  // namespace hgp::mit
