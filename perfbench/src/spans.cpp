#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <numeric>
#include <utility>

namespace perfbench {

Nesting nest(const std::vector<Span>& spans) {
  const int n = static_cast<int>(spans.size());
  Nesting out;
  out.parent.assign(spans.size(), -1);
  out.self_ns.resize(spans.size());

  std::vector<int> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].end_ns > spans[b].end_ns;  // the outer span first
  });
  // Parent = the innermost open span that contains the new one; a span that
  // only overlaps its predecessors falls back to the innermost overlapping
  // span, so its time is still subtracted once from that parent.
  std::vector<int> open;
  for (int i : order) {
    while (!open.empty() && spans[open.back()].end_ns <= spans[i].start_ns) {
      open.pop_back();
    }
    int overlapping = -1;
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (spans[*it].end_ns <= spans[i].start_ns) {
        continue;
      }
      if (spans[*it].end_ns >= spans[i].end_ns) {
        out.parent[i] = *it;
        break;
      }
      if (overlapping < 0) {
        overlapping = *it;
      }
    }
    if (out.parent[i] < 0) {
      out.parent[i] = overlapping;
    }
    open.push_back(i);
  }

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (int i = 0; i < n; ++i) {
    if (const int p = out.parent[i]; p >= 0) {
      kids[p].emplace_back(std::max(spans[i].start_ns, spans[p].start_ns),
                           std::min(spans[i].end_ns, spans[p].end_ns));
    }
  }
  for (int i = 0; i < n; ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) {
        continue;
      }
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (have) {
        covered += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
    if (have) {
      covered += cur_hi - cur_lo;
    }
    out.self_ns[i] = std::max<std::int64_t>(0, spans[i].duration() - covered);
  }
  return out;
}

void inherit_ops(std::vector<Span>& spans, const Nesting& n) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op != 0) {
      continue;
    }
    for (int p = n.parent[i]; p >= 0; p = n.parent[p]) {
      if (spans[p].op != 0) {
        spans[i].op = spans[p].op;
        break;
      }
    }
  }
}

void accumulate_layers(const std::vector<Span>& spans, const Nesting& n,
                       std::map<std::string, LayerRow>& table) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerRow& row = table[s.layer];
    ++row.count;
    row.busy_ns += s.duration();
    row.self_ns += n.self_ns[i];
    if (s.wait) {
      row.wait_ns += n.self_ns[i];
    } else if (s.requested_ns >= 0) {
      row.wait_ns += std::clamp<std::int64_t>(s.duration() - s.requested_ns,
                                              0, n.self_ns[i]);
    }
  }
}

const char* layer_of_obs_span(const char* name) {
  static constexpr std::pair<const char*, const char*> kPrefixes[] = {
      {"pmix.", "pmix"},     {"prte.", "prte"},   {"fabric.", "fabric"},
      {"coll.", "coll"},     {"ckpt.", "ckpt"},   {"ft.", "ft"},
      {"session.", "core"},  {"comm.", "core"},   {"cid.", "core"},
      {"pml.", "core"},      {"nbc.", "core"},    {"quo.", "quo"},
      {"sim.", "sim"},
  };
  for (const auto& [prefix, layer] : kPrefixes) {
    if (std::strncmp(name, prefix, std::strlen(prefix)) == 0) {
      return layer;
    }
  }
  return "other";
}

void print_layer_table(std::ostream& os,
                       const std::map<std::string, LayerRow>& table) {
  os << std::left << std::setw(10) << "layer" << std::right << std::setw(12)
     << "count" << std::setw(14) << "busy_ms" << std::setw(14) << "self_ms"
     << std::setw(14) << "wait_ms" << "\n";
  for (const auto& [layer, row] : table) {
    os << std::left << std::setw(10) << layer << std::right << std::setw(12)
       << row.count << std::fixed << std::setprecision(3) << std::setw(14)
       << static_cast<double>(row.busy_ns) / 1e6 << std::setw(14)
       << static_cast<double>(row.self_ns) / 1e6 << std::setw(14)
       << static_cast<double>(row.wait_ns) / 1e6 << "\n";
  }
  os.unsetf(std::ios::floatfield);
  os << std::setprecision(6);
}

}  // namespace perfbench
