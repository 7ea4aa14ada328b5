#include "report.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "stats.hpp"

namespace perfbench {

namespace {

using Field = std::vector<double> RankRec::*;

/// Worst rank per operation index: the value of op i is the slowest rank's.
std::vector<double> worst_per_op(const std::vector<RankRec>& recs, Field f) {
  std::vector<double> out;
  for (const RankRec& r : recs) {
    const auto& v = r.*f;
    if (out.size() < v.size()) {
      out.resize(v.size(), 0.0);
    }
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] = std::max(out[i], v[i]);
    }
  }
  return out;
}

std::vector<double> pooled(const std::vector<RankRec>& recs, Field f) {
  std::vector<double> out;
  for (const RankRec& r : recs) {
    out.insert(out.end(), (r.*f).begin(), (r.*f).end());
  }
  return out;
}

/// The entries v[i] whose flag is `want`, flags taken from the first rank
/// that recorded any (identical on every rank that recorded them).
std::vector<double> with_flag(const std::vector<double>& v,
                              const std::vector<RankRec>& recs,
                              std::vector<char> RankRec::*flags, char want) {
  const std::vector<char>* f = nullptr;
  for (const RankRec& r : recs) {
    if (!(r.*flags).empty()) {
      f = &(r.*flags);
      break;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; f != nullptr && i < v.size() && i < f->size(); ++i) {
    if ((*f)[i] == want) {
      out.push_back(v[i]);
    }
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

class MetricSet {
 public:
  explicit MetricSet(Report& rep) : rep_(rep) {}

  void e2e(const std::string& name, const std::string& unit,
           const std::vector<double>& v, double pct) {
    add(rep_.end_to_end, name, unit, v, pct);
  }
  void layer(const std::string& name, const std::string& unit,
             const std::vector<double>& v, double pct) {
    add(rep_.per_layer, name, unit, v, pct);
  }
  void e2e_value(const std::string& name, const std::string& unit, double v) {
    rep_.end_to_end.push_back({name, v, unit, 1});
  }
  void layer_value(const std::string& name, const std::string& unit, double v,
                   std::size_t samples = 1) {
    rep_.per_layer.push_back({name, v, unit, samples});
  }
  void fail(const std::string& why) {
    ++rep_.attempted;
    ++rep_.failed;
    rep_.errors.push_back(why);
  }

 private:
  void add(std::vector<Metric>& into, const std::string& name,
           const std::string& unit, const std::vector<double>& v, double pct) {
    // End-to-end tails must be supported by the sample count (the
    // choosing-metrics rule); an unsupported one is a failed run.
    if (&into == &rep_.end_to_end && !percentile_supported(v.size(), pct)) {
      fail(name + ": " + std::to_string(v.size()) + " samples do not support p" +
           std::to_string(static_cast<int>(pct)));
    }
    into.push_back({name, percentile(v, pct), unit, v.size()});
  }
  Report& rep_;
};

/// Rate of each window (or rep) from its worst participant's time. Rates
/// are reported as the median over a run: an aggregate (all messages over
/// the summed time) let a few windows stalled by the host move a whole
/// run's figure.
std::vector<double> rates(const std::vector<double>& worst_s, double msgs) {
  std::vector<double> out;
  for (double s : worst_s) {
    if (s > 0) {
      out.push_back(msgs / s);
    }
  }
  return out;
}

/// Tracing overhead of the main phase's primary metric, from the traced
/// (odd) and untraced (even) iterations of the same run. Positive = traced
/// iterations were worse.
double trace_overhead_pct(const Plan& plan, const Results& res,
                          const std::vector<double>& create_worst,
                          const std::vector<double>& warm_rate,
                          const std::vector<double>& step_worst) {
  const auto& recs = res.main_recs;
  switch (plan.main) {
    case Phase::churn: {
      const double on = median(with_flag(create_worst, recs, &RankRec::churn_traced, 1));
      const double off = median(with_flag(create_worst, recs, &RankRec::churn_traced, 0));
      return (ratio(on, off) - 1.0) * 100.0;
    }
    case Phase::windows: {
      const double on = median(with_flag(warm_rate, recs, &RankRec::window_traced, 1));
      const double off = median(with_flag(warm_rate, recs, &RankRec::window_traced, 0));
      return (ratio(off, on) - 1.0) * 100.0;
    }
    case Phase::coupled: {
      std::vector<double> on, off;
      const std::vector<char>* ckpt = nullptr;
      const std::vector<char>* traced = nullptr;
      for (const RankRec& r : recs) {
        if (!r.step_ckpt.empty()) {
          ckpt = &r.step_ckpt;
          traced = &r.step_traced;
          break;
        }
      }
      for (std::size_t i = 0; ckpt != nullptr && i < step_worst.size(); ++i) {
        if (!(*ckpt)[i]) {
          ((*traced)[i] ? on : off).push_back(step_worst[i]);
        }
      }
      return (ratio(median(on), median(off)) - 1.0) * 100.0;
    }
  }
  return 0.0;
}

}  // namespace

Report build_report(const Plan& plan, Results& res, long nproc) {
  Report rep;
  MetricSet b(rep);
  rep.phase_s = res.phase_s;
  rep.iterations = std::to_string(res.churn_rounds) + " churn rounds, " +
                   std::to_string(res.window_reps) + " window reps, " +
                   std::to_string(res.solves) + " solves";
  const auto& m = res.main_recs;
  const double n = static_cast<double>(m.size());

  // --- correctness -----------------------------------------------------------
  for (const auto* recs : {&res.setup_recs, &res.main_recs, &res.pp_recs}) {
    for (const RankRec& r : *recs) {
      rep.attempted += r.attempted;
      rep.failed += r.failed;
      if (!r.first_error.empty() && rep.errors.size() < 8) {
        rep.errors.push_back("check failed: " + r.first_error);
      }
    }
  }
  if (!res.error.empty()) {
    b.fail("rank exception: " + res.error);
  }
  const long working = res.max_threads - 1;  // the main thread only joins
  if (res.max_threads <= 0) {
    b.fail("could not read Threads: from /proc/self/status");
  } else if (working > nproc) {
    b.fail("working threads " + std::to_string(working) + " exceed nproc " +
           std::to_string(nproc));
  }

  // --- end-to-end ------------------------------------------------------------
  const auto create_worst = worst_per_op(m, &RankRec::create_ms);
  const auto dup_worst = worst_per_op(m, &RankRec::dup_ms);
  const double pairs = res.window_pairs;
  const auto warm_worst = worst_per_op(m, &RankRec::warm_s);
  const auto cold_worst = worst_per_op(m, &RankRec::cold_s);
  const auto bw_worst = worst_per_op(m, &RankRec::bw_s);
  const double warm_msgs = pairs * kWindowMsgs * kWarmWindows;
  const auto warm_rate = rates(warm_worst, warm_msgs);
  const auto cold_rate = rates(cold_worst, pairs * kWindowMsgs);
  const auto bw = rates(bw_worst, pairs * kBwWindowMsgs * static_cast<double>(kBwMsgBytes) / 1e6);
  const auto step_worst = worst_per_op(m, &RankRec::step_ms);
  const auto plain_steps = with_flag(step_worst, m, &RankRec::step_ckpt, 0);
  const auto& latency = res.pp_recs.empty() ? std::vector<double>{} : res.pp_recs[0].latency_us;

  b.e2e("setup_s", "s", res.setup_s, 50);
  b.e2e_value("wall_s", "s", res.wall_s);
  b.e2e_value("peak_rss_mib", "MiB", static_cast<double>(res.peak_rss_kib) / 1024.0);
  b.e2e("comm_create_ms.p50", "ms", create_worst, 50);
  b.e2e("comm_create_ms.p90", "ms", create_worst, 90);
  b.e2e("comm_dup_ms.p50", "ms", dup_worst, 50);
  b.e2e("msg_rate", "msg/s", warm_rate, 50);
  b.e2e("msg_rate_cold", "msg/s", cold_rate, 50);
  b.e2e("latency_us.p50", "us", latency, 50);
  b.e2e("latency_us.p99", "us", latency, 99);
  b.e2e("step_ms.p50", "ms", plain_steps, 50);
  b.e2e("solve_s", "s", worst_per_op(m, &RankRec::solve_s), 50);

  // --- per layer -------------------------------------------------------------
  const auto run_delta = [&](const std::string& name) {
    return static_cast<double>(res.run.delta(name));
  };
  const auto phase_delta = [&](Phase ph, const std::string& name) {
    return static_cast<double>(res.counters[ph].delta(name));
  };
  const auto& s = res.setup_recs;

  // sim
  b.layer("sim.cluster_build_ms", "ms", res.cluster_build_ms, 50);
  b.layer_value("sim.fiber_switches_per_rank", "count",
                run_delta("sim.fiber_switches") / n);
  b.layer("sim.delay_overshoot_us.p50", "us", pooled(m, &RankRec::delay_overshoot_us), 50);
  b.layer("sim.delay_overshoot_us.p99", "us", pooled(m, &RankRec::delay_overshoot_us), 99);
  b.layer_value("sim.working_threads", "count", static_cast<double>(working));
  // core: session / CID
  b.layer("core.session_init_ms", "ms", worst_per_op(s, &RankRec::session_init_ms), 50);
  b.layer("core.group_from_pset_ms", "ms", worst_per_op(s, &RankRec::group_from_pset_ms), 50);
  b.layer("core.create_from_group_ms.p50", "ms", pooled(m, &RankRec::create_ms), 50);
  b.layer("core.dup_ms.p50", "ms", pooled(m, &RankRec::dup_ms), 50);
  b.layer("core.session_finalize_ms", "ms", worst_per_op(s, &RankRec::session_finalize_ms), 50);
  b.layer("core.first_contact_us", "us", pooled(s, &RankRec::first_contact_us), 50);
  // pmix
  // Each segment builds fresh clusters, whose modex caches start empty.
  b.layer_value("pmix.modex_lazy_fetches_per_rank", "count",
                run_delta("pmix.modex_lazy_fetches") / (n * kSegments));
  b.layer_value("pmix.modex_cache_hits", "count", run_delta("pmix.modex_cache_hits"));
  // core: pml
  b.layer("core.isend_us.p50", "us", pooled(m, &RankRec::isend_us), 50);
  b.layer("core.window_wait_us.p50", "us", pooled(m, &RankRec::window_wait_us), 50);
  // 64 KiB windows. Not an end-to-end metric: their rate follows the
  // host's speed (one seed read 150, then 194 MB/s three minutes later).
  b.layer("core.rndv_bw_MBps", "MB/s", bw, 50);
  // Share of pair endpoints whose CID handshake completed inside the cold
  // window (the barrier before it may already have handshaked some pairs).
  double handshaked = 0, cold_windows = 0;
  for (const RankRec& r : m) {
    handshaked += r.handshaked;
    cold_windows += r.cold_windows;
  }
  b.layer_value("core.handshaked_share_after_first_window", "ratio",
                ratio(handshaked, cold_windows), static_cast<std::size_t>(cold_windows));
  const double wmsgs = static_cast<double>(res.window_msgs);
  b.layer_value("pml.match_bin_hits_per_msg", "count",
                ratio(phase_delta(Phase::windows, "pml.match_bin_hits"), wmsgs));
  b.layer_value("pml.wildcard_scans", "count", run_delta("pml.wildcard_scans"));
  b.layer_value("pml.seq_anomalies", "count", run_delta("pml.seq_anomalies"));
  // fabric
  b.layer_value("fabric.acks_per_msg", "count",
                ratio(phase_delta(Phase::windows, "fabric.acks"), wmsgs));
  b.layer_value("fabric.payload_copies", "count",
                phase_delta(Phase::windows, "fabric.payload_copies"));
  const double hits = phase_delta(Phase::windows, "bench.pool_hits");
  const double misses = phase_delta(Phase::windows, "bench.pool_misses");
  b.layer_value("fabric.pool_hit_rate", "ratio", ratio(hits, hits + misses));
  b.layer_value("fabric.retransmits_per_msg", "ratio",
                ratio(run_delta("fabric.retransmits"), run_delta("pml.match_bin_hits")));
  // coll
  b.layer("coll.allreduce8_us.p50", "us", pooled(m, &RankRec::allreduce8_us), 50);
  b.layer("coll.allreduce64k_us.p50", "us", pooled(m, &RankRec::allreduce64k_us), 50);
  b.layer("coll.bcast512_us.p50", "us", pooled(m, &RankRec::bcast512_us), 50);
  b.layer("coll.barrier_us.p50", "us", pooled(m, &RankRec::barrier_us), 50);
  const double cops = res.coll_ops;
  b.layer_value("coll.wire_sends_per_op", "count",
                ratio(phase_delta(Phase::coupled, "coll.wire_sends"), cops));
  b.layer_value("coll.shm_bytes_per_op", "B",
                ratio(phase_delta(Phase::coupled, "coll.shm_bytes"), cops));
  b.layer_value("coll.payload_copies", "count",
                phase_delta(Phase::coupled, "coll.payload_copies"));
  // Per cluster: every segment that runs coupled steps builds its plans anew.
  b.layer_value("coll.plan_builds", "count",
                phase_delta(Phase::coupled, "coll.plan_builds") /
                    std::min(plan.iterations(Phase::coupled), kSegments));
  // quo / ckpt / ft
  b.layer("quo.barrier_us.p50", "us", pooled(m, &RankRec::quo_barrier_us), 50);
  b.layer("ckpt.save_ms.p50", "ms", pooled(m, &RankRec::ckpt_save_ms), 50);
  b.layer_value("ckpt.redundancy_bytes_per_save", "B",
                ratio(phase_delta(Phase::coupled, "ckpt.redundancy_bytes"), res.saves));
  b.layer_value("ft.agrees_per_save", "count",
                ratio(phase_delta(Phase::coupled, "ft.agrees"), res.saves));
  // obs
  b.layer_value("obs.trace_overhead_pct", "%",
                plan.trace ? trace_overhead_pct(plan, res, create_worst, warm_rate, step_worst)
                           : 0.0);
  // bench: the failure accounting itself
  b.layer_value("ops_failed_ratio", "ratio",
                ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
                rep.attempted);

  if (plan.trace) {
    for (auto* recs : {&res.setup_recs, &res.main_recs, &res.pp_recs}) {
      for (RankRec& r : *recs) {
        const Nesting nest_r = nest(r.spans);
        inherit_ops(r.spans, nest_r);
        accumulate_layers(r.spans, nest_r, rep.layers);
      }
    }
  }
  return rep;
}

void print_report(std::ostream& os, const Plan& plan, const Report& rep) {
  const auto table = [&](const char* title, const std::vector<Metric>& ms) {
    os << "\n" << title << "\n";
    for (const Metric& mt : ms) {
      os << "  " << std::left << std::setw(42) << mt.name << std::right
         << std::setw(16) << std::setprecision(6) << mt.value << " "
         << std::left << std::setw(6) << mt.unit << " n=" << mt.samples << "\n";
    }
    os << std::right;
  };
  os << "workload " << plan.name << ": " << plan.nodes << " nodes x " << plan.ppn
     << " ppn";
  if (plan.side_nodes > 0) {
    os << " (side cluster " << plan.side_nodes << " x " << plan.side_ppn << ")";
  }
  os << ", sim.scheduler=fibers, lazy modex, calibrated cost model\n";
  static constexpr const char* kPhaseNames[] = {"churn", "windows", "coupled"};
  os << "phase host time:";
  for (const auto& [ph, secs] : rep.phase_s) {
    os << " " << kPhaseNames[static_cast<int>(ph)] << "=" << secs << "s";
  }
  os << " (" << rep.iterations << ")\n";
  table("end-to-end", rep.end_to_end);
  table("per-layer", rep.per_layer);
  os << "\nops attempted " << rep.attempted << ", failed " << rep.failed
     << ", ops_failed_ratio "
     << ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted))
     << " ratio\n";
  for (const std::string& e : rep.errors) {
    os << "  " << e << "\n";
  }
  if (!rep.layers.empty()) {
    os << "\nper-layer spans (busy = summed span time, self = busy minus child "
          "spans, wait = self time blocked on other ranks + delay overshoot)\n";
    print_layer_table(os, rep.layers);
  }
}

void print_result_json(std::ostream& os, const Report& rep, bool traced) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& mt : traced ? rep.per_layer : rep.end_to_end) {
    out << (first ? "" : ", ") << "\"" << mt.name << "\": {\"value\": " << mt.value
        << ", \"unit\": \"" << mt.unit << "\"}";
    first = false;
  }
  out << "}}";
  os << out.str() << "\n";
}

long write_spans(const std::string& path, const Results& res) {
  std::ofstream out(path);
  if (!out) {
    return -1;
  }
  out << "cluster\trank\top\tlayer\tname\tstart_ns\tend_ns\tself_ns\n";
  long written = 0;
  const std::pair<const char*, const std::vector<RankRec>*> sets[] = {
      {"setup", &res.setup_recs}, {"main", &res.main_recs}, {"pingpong", &res.pp_recs}};
  for (const auto& [cluster, recs] : sets) {
    for (std::size_t r = 0; r < recs->size(); ++r) {
      const auto& spans = (*recs)[r].spans;
      const Nesting nst = nest(spans);
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& sp = spans[i];
        out << cluster << '\t' << r << '\t' << sp.op << '\t' << sp.layer << '\t'
            << sp.name << '\t' << sp.start_ns << '\t' << sp.end_ns << '\t'
            << nst.self_ns[i] << '\n';
        ++written;
      }
    }
  }
  return out ? written : -1;
}

}  // namespace perfbench
