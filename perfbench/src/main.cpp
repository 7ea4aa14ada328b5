// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload startup|pt2pt|coupled-app --seed N --seconds S
//             --trace 0|1 [--spans-out FILE]
//
// Prints every metric by name and unit, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits nonzero when
// any correctness check failed (or on bad arguments).

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "phases.hpp"
#include "report.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/pmix/client.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace {

using perfbench::Phase;
using perfbench::Plan;

/// The three workloads (README.md gives why each was chosen).
std::optional<Plan> plan_for(const std::string& name) {
  Plan p;
  p.name = name;
  if (name == "startup") {
    // 256 ranks: pmix group construct, prte, core CID/exCID and the fiber
    // scheduler do the work; churn fills the budget. Windows and coupled
    // steps run on a 4 x 8 side cluster. At 64 ppn (1024 fibers on three
    // workers) comm_dup_ms timed the scheduler's cycle over the fibers,
    // not the dup: one busy core elsewhere on the host nearly doubled it.
    p.nodes = 16;
    p.ppn = 16;
    p.main = Phase::churn;
    p.side_nodes = 4;
    p.side_ppn = 8;
    p.main_per_second = 10.0;
  } else if (name == "pt2pt") {
    // Fig. 5c shape: 1 node x 16 ranks, 8 pairs; windows fill the budget.
    p.nodes = 1;
    p.ppn = 16;
    p.main = Phase::windows;
    p.main_per_second = 3.6;
  } else if (name == "coupled-app") {
    // 2MESH-style: 4 nodes x 8 ppn; timesteps fill the budget.
    p.nodes = 4;
    p.ppn = 8;
    p.main = Phase::coupled;
    p.main_per_second = 1.0;
  } else {
    return std::nullopt;
  }
  return p;
}

std::optional<std::string> arg(int argc, char** argv, const char* key) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], key) == 0) {
      return std::string(argv[i + 1]);
    }
  }
  return std::nullopt;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload startup|pt2pt|coupled-app "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto workload = arg(argc, argv, "--workload");
  const auto seed = arg(argc, argv, "--seed");
  const auto seconds = arg(argc, argv, "--seconds");
  const auto trace = arg(argc, argv, "--trace");
  if (!workload || !seed || !seconds || !trace) {
    return usage("missing argument");
  }
  std::optional<Plan> plan = plan_for(*workload);
  if (!plan) {
    return usage("unknown workload");
  }
  char* end = nullptr;
  const unsigned long long seed_v = std::strtoull(seed->c_str(), &end, 10);
  if (end == seed->c_str() || *end != '\0') {
    return usage("--seed must be a whole number");
  }
  plan->seconds = std::strtod(seconds->c_str(), &end);
  if (end == seconds->c_str() || *end != '\0' || plan->seconds <= 0 ||
      plan->seconds > 600) {
    return usage("--seconds must be in (0, 600]");
  }
  if (*trace != "0" && *trace != "1") {
    return usage("--trace must be 0 or 1");
  }
  plan->trace = *trace == "1";

  // Every workload runs on the fiber scheduler with the lazy modex.
  sessmpi::sim::register_scheduler_cvar();
  sessmpi::pmix::register_modex_cvar();
  if (!sessmpi::obs::cvar_write("sim.scheduler", "fibers") ||
      !sessmpi::obs::cvar_write("pmix.modex", "lazy")) {
    std::cerr << "perfbench: cannot select fibers + lazy modex\n";
    return 2;
  }

  const perfbench::Inputs inputs = perfbench::make_inputs(*plan, seed_v);
  perfbench::Results res = perfbench::run_workload(*plan, inputs);
  res.peak_rss_kib = perfbench::proc_status("VmHWM:");

  const long nproc = static_cast<long>(std::thread::hardware_concurrency());
  perfbench::Report rep = perfbench::build_report(*plan, res, nproc);
  perfbench::print_report(std::cout, *plan, rep);
  if (plan->trace) {
    if (const auto out = arg(argc, argv, "--spans-out")) {
      const long n = perfbench::write_spans(*out, res);
      if (n < 0) {
        std::cout << "cannot write spans to " << *out << "\n";
      } else {
        std::cout << "SPANS=" << *out << " (" << n << " spans)\n";
      }
    }
  }
  perfbench::print_result_json(std::cout, rep, plan->trace);
  return rep.failed == 0 ? 0 : 1;
}
