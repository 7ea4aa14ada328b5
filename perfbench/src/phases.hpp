#pragma once

// The benchmark's phases. Every workload runs all of them, so every
// workload reports every end-to-end metric; the workload decides the
// cluster shape and which phase fills the time budget (its "main" phase).
// See README.md for the workload rationale.
//
//   setup    Cluster construction -> Session_init -> group_from_pset ->
//            create_from_group -> ring first contact, repeated `setups`
//            times on fresh clusters                     -> setup_s
//   churn    create_from_group (fresh PGCID) -> ring first contact -> dup
//            (derived exCID) -> ring -> free             -> comm_create_ms,
//                                                           comm_dup_ms
//   windows  up to 8 seeded sender->receiver pairs among node 0's ranks,
//            on a fresh communicator per rep:
//            one cold 8 B window, warm 8 B windows, 64 KiB windows
//                                                        -> msg_rate_cold,
//                                                           msg_rate, bw_MBps
//   coupled  2MESH-style timesteps (compute, halo, allreduces, bcast, QUO
//            quiesced L1 phase, RS(4,2) checkpoint every 5th step)
//                                                        -> step_ms, solve_s
//   pingpong 8 B ping-pong on a separate 1x2 cluster      -> latency_us
//
// Times are host steady_clock readings taken around calls into each
// module's public API (base::Stopwatch / base::now_ns); the benchmark adds
// no probe inside src/.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

enum class Phase { churn, windows, coupled };

// Window shapes of the windows phase (osu_mbw_mr style).
inline constexpr int kWindowMsgs = 64;            ///< 8 B messages per window
inline constexpr int kBwWindowMsgs = 16;          ///< 64 KiB messages per window
inline constexpr std::size_t kBwMsgBytes = 64 * 1024;  ///< above kEagerLimit

/// Seeded rank layouts of one cluster, one per churn round and windows rep
/// (round i uses ring i, rep i pairing i; the coupled halo keeps ring 0 as
/// the run's domain decomposition).
struct Layout {
  std::vector<std::vector<int>> rings;     ///< ring orders over the ranks
  std::vector<std::vector<int>> pairings;  ///< (sender, receiver) pairs, <= 8
};

/// Seeded inputs. Generated once in main from --seed; the phases read only
/// these (never the seed itself).
struct Inputs {
  std::uint64_t payload_key = 0;  ///< key of every payload byte
  Layout main;                    ///< the workload cluster
  Layout side;                    ///< the side cluster (if the plan has one)
};

// Phase sizes, the same for every workload. A phase that is not the
// workload's main one runs its fixed count; the main one runs at least it.
inline constexpr int kSetups = 5;          ///< cold set-ups for setup_s (median)
/// Fresh clusters a phase's iterations are split over. The same work on
/// two clusters of one run differs by up to 30 % in comm_dup_ms and by up
/// to 50 % in the 64 KiB window rate (state a cluster keeps for its whole
/// life: threads, cores, tables), so one cluster per phase would make
/// whole runs fast or slow; sixteen average it out.
inline constexpr int kSegments = 16;
inline constexpr int kChurnRounds = 100;   ///< p90 of comm_create_ms needs >= 100
inline constexpr int kWindowReps = 48;     ///< 3 per segment
inline constexpr int kWarmWindows = 8;     ///< 8 B windows per rep after the cold one
inline constexpr int kBwWindows = 4;       ///< 64 KiB windows per rep
inline constexpr int kSolves = 1;
inline constexpr int kSolveSteps = 40;     ///< steps per solve (solve_s)
inline constexpr int kWarmupSteps = 3;     ///< coupled steps before the first solve
inline constexpr int kPingpongs = 1600;    ///< p99 of latency_us needs >= 1000
inline constexpr std::int64_t kComputeNs = 4'000'000;  ///< L0 compute per step
inline constexpr std::int64_t kL1Ns = 6'000'000;       ///< leader L1 threaded phase

/// Part `part` of `total` iterations split into `parts` contiguous runs
/// whose sizes differ by at most one: (first iteration, count).
inline std::pair<int, int> split_share(int total, int parts, int part) {
  const int base = total / parts;
  const int extra = total % parts;
  return {part * base + std::min(part, extra), base + (part < extra ? 1 : 0)};
}

/// A workload: its shape and its main phase.
struct Plan {
  std::string name;
  int nodes = 1;
  int ppn = 1;
  Phase main = Phase::churn;
  /// Shape of a side cluster that runs the non-main phases; 0 = they run
  /// on the workload cluster. The startup workload runs them on a 4 x 8
  /// side cluster (the coupled-app shape), so its big cluster only churns.
  int side_nodes = 0;
  int side_ppn = 0;
  /// Main-phase iterations per second of --seconds, sized so the main
  /// phase measures about that long on a 4-core host. The count is fixed
  /// by the arguments, so every run does the same work.
  double main_per_second = 1.0;
  double seconds = 10.0;
  bool trace = false;

  /// Iterations phase `ph` runs (rounds, reps or solves).
  [[nodiscard]] int iterations(Phase ph) const;
  /// The iterations of phase `ph` that segment `seg` runs: (first, count).
  [[nodiscard]] std::pair<int, int> segment_share(Phase ph, int seg) const;
};

/// What one rank measured. Each rank writes only its own record, so the
/// phases need no locking; the main thread reads them after the join.
struct RankRec {
  // setup / teardown (one entry per set-up cycle)
  std::vector<double> session_init_ms, group_from_pset_ms, session_finalize_ms;
  std::int64_t comm_ready_ns = 0;  ///< host time the first comm was ready
  // churn (one entry per round)
  std::vector<double> create_ms, dup_ms, first_contact_us;
  std::vector<char> churn_traced;
  // windows (one entry per rep; empty on ranks outside every pair)
  std::vector<double> cold_s, warm_s, bw_s;
  std::vector<char> window_traced;
  std::vector<double> isend_us, window_wait_us;
  int handshaked = 0;    ///< CID handshakes the cold windows completed
  int cold_windows = 0;  ///< cold windows this rank took part in
  // coupled (one entry per measured step / per solve)
  std::vector<double> step_ms;
  std::vector<char> step_ckpt, step_traced;
  std::vector<double> solve_s;
  std::vector<double> delay_overshoot_us, allreduce8_us, allreduce64k_us,
      bcast512_us, barrier_us, quo_barrier_us, ckpt_save_ms;
  // pingpong (rank 0 of the 1x2 cluster)
  std::vector<double> latency_us;
  // correctness accounting
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  // traced runs
  std::vector<Span> spans;
};

/// Counter snapshots taken by rank 0 between barriers at the edges of a
/// phase (base::counters() plus the buffer pool's hit/miss tally).
struct PhaseCounters {
  std::map<std::string, std::uint64_t> before, after;
  std::map<std::string, std::uint64_t> total;  ///< closed segments' deltas
  /// Closed segments plus the open one (after - before).
  [[nodiscard]] std::uint64_t delta(const std::string& name) const;
  /// Add the open segment's deltas to `total`.
  void close_segment();
};

/// Whole-run results, filled by run_workload.
struct Results {
  std::vector<RankRec> setup_recs;  ///< one per rank, across set-up cycles
  std::vector<double> setup_s, cluster_build_ms;
  /// Ranks of the workload cluster, followed by those of the side cluster
  /// when the plan has one (each phase fills only its own fields).
  std::vector<RankRec> main_recs;
  std::vector<RankRec> pp_recs;     ///< the 1x2 ping-pong cluster
  std::map<Phase, PhaseCounters> counters;
  std::map<Phase, double> phase_s;  ///< host time of each phase (rank 0)
  PhaseCounters run;  ///< the workload (and side) cluster runs as a whole
  int churn_rounds = 0, window_reps = 0, window_pairs = 0, solves = 0;
  int saves = 0, coll_ops = 0;
  std::uint64_t window_msgs = 0;  ///< pt2pt messages the windows phase sent
  long max_threads = 0;           ///< Threads: seen inside a rank
  double wall_s = 0;
  long peak_rss_kib = 0;
  std::string error;  ///< an exception that ended a cluster run
};

Inputs make_inputs(const Plan& plan, std::uint64_t seed);
Results run_workload(const Plan& plan, const Inputs& in);

/// The number after `key` (e.g. "Threads:", "VmHWM:") in
/// /proc/self/status; 0 if unavailable.
long proc_status(const char* key);

}  // namespace perfbench
