#include "phases.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "sessmpi/base/buffer_pool.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/quo/quo.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace perfbench {

using namespace sessmpi;

namespace {

constexpr std::size_t kSmall = 8;
constexpr int kMaxPairs = 8;         // the Fig. 5c shape
constexpr int kHaloElems = 512;      // 4 KiB halo
constexpr int kBigElems = 8192;      // 64 KiB allreduce
constexpr std::size_t kBcastBytes = 512;
constexpr int kCkptEvery = 5;

// Operation ids: phase in the top byte, iteration below. Every rank derives
// the same id for the same collective step, so spans of one operation on
// different ranks share it.
enum : std::uint32_t { kOpSetup = 1, kOpChurn, kOpWindows, kOpCoupled, kOpPing };
std::uint32_t op_id(std::uint32_t phase, int iter) {
  return (phase << 24) | (static_cast<std::uint32_t>(iter) & 0xffffffu);
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Payload word `i` of stream (a, b) under the input key.
std::uint64_t word(std::uint64_t key, std::uint64_t a, std::uint64_t b,
                   std::uint64_t i) {
  return splitmix(key ^ splitmix(a * 0x100000001b3ULL ^ splitmix(b ^ (i << 20))));
}

void fill(std::byte* p, std::size_t bytes, std::uint64_t key, std::uint64_t a,
          std::uint64_t b) {
  for (std::size_t off = 0, i = 0; off < bytes; off += 8, ++i) {
    const std::uint64_t w = word(key, a, b, i);
    std::memcpy(p + off, &w, std::min<std::size_t>(8, bytes - off));
  }
}

bool matches(const std::byte* p, std::size_t bytes, std::uint64_t key,
             std::uint64_t a, std::uint64_t b) {
  for (std::size_t off = 0, i = 0; off < bytes; off += 8, ++i) {
    const std::uint64_t w = word(key, a, b, i);
    if (std::memcmp(p + off, &w, std::min<std::size_t>(8, bytes - off)) != 0) {
      return false;
    }
  }
  return true;
}

/// Ring neighbours by rank.
struct RingView {
  std::vector<int> next, prev;
};

/// One set of windows pairs, by rank.
struct PairingView {
  std::vector<int> partner;     // -1 = idle this rep
  std::vector<int> pair_index;  // pair number
  std::vector<char> sender;
};

/// Read-only view of the inputs every rank shares.
struct Shared {
  std::uint64_t key = 0;
  std::vector<RingView> rings;
  std::vector<PairingView> pairings;
  int pairs = 0;
};

Shared make_shared_view(std::uint64_t key, const Layout& in, int n) {
  Shared sh;
  sh.key = key;
  for (const std::vector<int>& ring : in.rings) {
    RingView rv;
    rv.next.assign(n, 0);
    rv.prev.assign(n, 0);
    for (int pos = 0; pos < n; ++pos) {
      rv.next[ring[pos]] = ring[(pos + 1) % n];
      rv.prev[ring[pos]] = ring[(pos + n - 1) % n];
    }
    sh.rings.push_back(std::move(rv));
  }
  for (const std::vector<int>& pairs : in.pairings) {
    PairingView pv;
    pv.partner.assign(n, -1);
    pv.pair_index.assign(n, -1);
    pv.sender.assign(n, 0);
    sh.pairs = static_cast<int>(pairs.size() / 2);
    for (int k = 0; k < sh.pairs; ++k) {
      const int s = pairs[2 * k], r = pairs[2 * k + 1];
      pv.partner[s] = r;
      pv.partner[r] = s;
      pv.pair_index[s] = pv.pair_index[r] = k;
      pv.sender[s] = 1;
    }
    sh.pairings.push_back(std::move(pv));
  }
  return sh;
}

/// Per-rank probe context: times calls into the layers and, in traced
/// runs, records one span per call.
struct Ctx {
  RankRec& rec;
  bool trace_run = false;
  bool tracing = false;

  template <class F>
  std::int64_t timed(const char* layer, const char* name, std::uint32_t op,
                     F&& f, bool wait = false, std::int64_t requested = -1) {
    const std::int64_t t0 = base::now_ns();
    f();
    const std::int64_t t1 = base::now_ns();
    if (tracing) {
      rec.spans.push_back(Span{name, layer, op, t0, t1, requested, wait});
    }
    return t1 - t0;
  }

  void check(bool ok, const char* what) {
    ++rec.attempted;
    if (!ok) {
      ++rec.failed;
      if (rec.first_error.empty()) {
        rec.first_error = what;
      }
    }
  }
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::map<std::string, std::uint64_t> snapshot_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : base::counters().snapshot()) {
    out[name] = value;
  }
  const auto pool = base::BufferPool::global().stats();
  out["bench.pool_hits"] = pool.hits;
  out["bench.pool_misses"] = pool.misses;
  return out;
}

/// Phase edge: every rank passes a barrier, then rank 0 snapshots the
/// process-wide counters.
void phase_edge(Ctx& x, const Communicator& c,
                std::map<std::string, std::uint64_t>& into) {
  x.rec.barrier_us.push_back(
      us(x.timed("coll", "coll.barrier", 0, [&] { c.barrier(); }, true)));
  if (c.rank() == 0) {
    into = snapshot_counters();
  }
}

/// Traced runs alternate the main phase's iterations between traced and
/// untraced, so the tracing overhead is measured under the same conditions.
bool traced_iteration(const Ctx& x, bool main_phase, int i) {
  return x.trace_run && (!main_phase || i % 2 == 1);
}

void set_tracing(Ctx& x, const Communicator& c, bool on) {
  x.tracing = on;
  if (x.trace_run && c.rank() == 0) {
    obs::Tracer::instance().set_enabled(on);
  }
}

/// One-neighbour ring on `c` with a seeded token: returns the duration.
std::int64_t ring(Ctx& x, std::uint64_t key, const RingView& rv,
                  const Communicator& c, std::uint32_t op, std::uint64_t stream,
                  const char* name) {
  const int me = c.rank();
  const std::uint64_t token = word(key, stream, me, 0);
  std::uint64_t got = 0;
  const std::int64_t ns = x.timed("core", name, op, [&] {
    c.sendrecv(&token, 1, Datatype::uint64(), rv.next[me], 7, &got, 1,
               Datatype::uint64(), rv.prev[me], 7);
  });
  x.check(got == word(key, stream, rv.prev[me], 0), "ring token");
  return ns;
}

// --- churn -----------------------------------------------------------------

void churn(Ctx& x, const Shared& sh, const Group& world_g,
           const Communicator& world, int first, int rounds, bool main_phase,
           Results& res) {
  RankRec& rec = x.rec;
  // Round i; round -1 is the cluster's unrecorded warm-up (its first
  // constructors pay lazy modex fetches and handshakes once per cluster).
  const auto round = [&](int i) {
    const bool record = i >= 0;
    const bool traced = record && traced_iteration(x, main_phase, i);
    set_tracing(x, world, traced);
    const std::uint32_t op = op_id(kOpChurn, record ? i + 1 : 0);
    const auto stream = static_cast<std::uint64_t>(i + 1);
    Communicator c, d;
    // Barriers before the timed constructors: each then measures its own
    // cost, not the arrival skew the previous step left behind.
    const double b0 = us(x.timed("coll", "coll.barrier", op, [&] { world.barrier(); }, true));
    const double create = ms(x.timed("core", "comm.create_from_group", op, [&] {
      c = Communicator::create_from_group(world_g, "churn" + std::to_string(i));
    }));
    // Each round takes its own seeded ring, so a run averages over many
    // neighbour layouts instead of depending on one.
    const RingView& rv = sh.rings[static_cast<std::size_t>(std::max(i, 0)) % sh.rings.size()];
    const double contact = us(ring(x, sh.key, rv, c, op, 1000 + stream, "comm.ring_first_contact"));
    const double b1 = us(x.timed("coll", "coll.barrier", op, [&] { c.barrier(); }, true));
    const double dup = ms(x.timed("core", "comm.dup", op, [&] { d = c.dup(); }));
    ring(x, sh.key, rv, d, op, 2000 + stream, "comm.ring");
    x.timed("core", "comm.free", op, [&] {
      d.free();
      c.free();
    });
    if (record) {
      rec.barrier_us.push_back(b0);
      rec.create_ms.push_back(create);
      rec.first_contact_us.push_back(contact);
      rec.barrier_us.push_back(b1);
      rec.dup_ms.push_back(dup);
      rec.churn_traced.push_back(traced ? 1 : 0);
    }
  };
  round(-1);
  for (int i = first; i < first + rounds; ++i) {
    round(i);
  }
  set_tracing(x, world, x.trace_run);
  if (world.rank() == 0) {
    res.churn_rounds = first + rounds;
  }
}

// --- windows -----------------------------------------------------------------

/// One osu_mbw_mr window between a pair; returns the participant's time.
std::int64_t window(Ctx& x, std::uint64_t key, const PairingView& pv,
                    const Communicator& c, std::vector<std::vector<std::byte>>& bufs,
                    int count, std::size_t bytes, std::uint32_t op,
                    std::uint64_t stream, bool record) {
  const int me = c.rank();
  const int peer = pv.partner[me];
  const int n = static_cast<int>(bytes);
  std::byte ack{};
  std::vector<Request> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  const std::int64_t t0 = base::now_ns();
  if (pv.sender[me]) {
    for (int w = 0; w < count; ++w) {
      const std::int64_t ns = x.timed("core", "comm.isend", op, [&] {
        reqs.push_back(c.isend(bufs[w].data(), n, Datatype::byte(), peer, 5));
      });
      if (record) {
        x.rec.isend_us.push_back(us(ns));
      }
    }
    const std::int64_t ns =
        x.timed("core", "request.wait_all", op, [&] { Request::wait_all(reqs); }, true);
    if (record) {
      x.rec.window_wait_us.push_back(us(ns));
    }
    x.timed("core", "comm.recv_ack", op,
            [&] { c.recv(&ack, 1, Datatype::byte(), peer, 6); }, true);
  } else {
    for (int w = 0; w < count; ++w) {
      reqs.push_back(c.irecv(bufs[w].data(), n, Datatype::byte(), peer, 5));
    }
    x.timed("core", "request.wait_all", op, [&] { Request::wait_all(reqs); }, true);
    c.send(&ack, 1, Datatype::byte(), peer, 6);
  }
  const std::int64_t elapsed = base::now_ns() - t0;
  if (!pv.sender[me]) {
    const auto k = static_cast<std::uint64_t>(pv.pair_index[me]);
    for (int w = 0; w < count; ++w) {
      x.check(matches(bufs[w].data(), bytes, key, stream, k * 1024 + w),
              "window payload");
      std::memset(bufs[w].data(), 0, bytes);
    }
  }
  return elapsed;
}

void windows(Ctx& x, const Shared& sh, const Group& world_g,
             const Communicator& world, int first, int reps, bool main_phase,
             Results& res) {
  RankRec& rec = x.rec;
  const int me = world.rank();
  std::vector<std::vector<std::byte>> small(kWindowMsgs), large(kBwWindowMsgs);
  for (int rep = first; rep < first + reps; ++rep) {
    // Each rep takes the next seeded pairing: which ranks pair up (and so
    // share a node or a scheduler worker) moves the rate a lot, and a run
    // should average over layouts rather than depend on one.
    const PairingView& pv = sh.pairings[static_cast<std::size_t>(rep) % sh.pairings.size()];
    const bool active = pv.partner[me] >= 0;
    const auto k = static_cast<std::uint64_t>(std::max(0, pv.pair_index[me]));
    const bool traced = traced_iteration(x, main_phase, rep);
    set_tracing(x, world, traced);
    const std::uint32_t op = op_id(kOpWindows, rep);
    const std::uint64_t s_small = 3000 + 2 * static_cast<std::uint64_t>(rep);
    const std::uint64_t s_large = s_small + 1;
    if (active) {
      for (int w = 0; w < kWindowMsgs; ++w) {
        small[w].assign(kSmall, std::byte{0});
        if (pv.sender[me]) {
          fill(small[w].data(), kSmall, sh.key, s_small, k * 1024 + w);
        }
      }
      for (int w = 0; w < kBwWindowMsgs; ++w) {
        large[w].assign(kBwMsgBytes, std::byte{0});
        if (pv.sender[me]) {
          fill(large[w].data(), kBwMsgBytes, sh.key, s_large, k * 1024 + w);
        }
      }
    }
    // A fresh sessions communicator: its first window still rides the
    // exCID extended header (the Fig. 5c condition).
    Communicator c;
    x.timed("core", "comm.create_from_group", op, [&] {
      c = Communicator::create_from_group(world_g, "win" + std::to_string(rep));
    });
    // Every window starts from a barrier, so the pairs start together and
    // one slow pair cannot skew the next window's start.
    const auto sync = [&] {
      rec.barrier_us.push_back(
          us(x.timed("coll", "coll.barrier", op, [&] { c.barrier(); }, true)));
    };
    sync();
    const int handshaked_before = c.handshaked_peers();
    if (active) {
      rec.cold_s.push_back(static_cast<double>(window(x, sh.key, pv, c, small, kWindowMsgs,
                                                      kSmall, op, s_small, false)) /
                           1e9);
      rec.handshaked += c.handshaked_peers() - handshaked_before;
      ++rec.cold_windows;
    }
    std::int64_t warm = 0;
    for (int w = 0; w < kWarmWindows; ++w) {
      sync();
      if (active) {
        warm += window(x, sh.key, pv, c, small, kWindowMsgs, kSmall, op, s_small, true);
      }
    }
    for (int w = 0; w < kBwWindows; ++w) {
      sync();
      if (active) {
        rec.bw_s.push_back(static_cast<double>(window(x, sh.key, pv, c, large, kBwWindowMsgs,
                                                      kBwMsgBytes, op, s_large, false)) /
                           1e9);
      }
    }
    if (active) {
      rec.warm_s.push_back(static_cast<double>(warm) / 1e9);
      rec.window_traced.push_back(traced ? 1 : 0);
    }
    if (me == 0 && rep == first) {
      res.max_threads = std::max(res.max_threads, proc_status("Threads:"));
    }
    rec.barrier_us.push_back(
        us(x.timed("coll", "coll.barrier", op, [&] { c.barrier(); }, true)));
    c.free();
  }
  set_tracing(x, world, x.trace_run);
  if (me == 0) {
    res.window_reps = first + reps;
    res.window_pairs = sh.pairs;
    res.window_msgs = static_cast<std::uint64_t>(first + reps) * sh.pairs *
                      (static_cast<std::uint64_t>(kWindowMsgs) * (1 + kWarmWindows) +
                       static_cast<std::uint64_t>(kBwWindowMsgs) * kBwWindows +
                       1 + kWarmWindows + kBwWindows);
  }
}

// --- coupled -----------------------------------------------------------------

void coupled(Ctx& x, const Shared& sh, const Communicator& world, int first,
             int solves, bool main_phase, Results& res) {
  RankRec& rec = x.rec;
  const int n = world.size();
  const int me = world.rank();
  const auto un = static_cast<std::uint64_t>(n);
  const std::uint64_t tri = un * (un - 1) / 2;
  const RingView& halo_ring = sh.rings.front();  // the run's decomposition

  quo::QuoContext q;
  x.timed("quo", "quo.create", 0, [&] {
    quo::QuoContext::Options qopts;
    qopts.barrier = quo::BarrierKind::sessions;
    q = quo::QuoContext::create(world, qopts);
  });
  ckpt::Config cfg;
  cfg.scheme = ckpt::Scheme::reed_solomon;
  cfg.set_data = 4;
  cfg.set_parity = 2;
  cfg.spill_to_fs = false;  // a spill starts a drainer thread per rank
  ckpt::Checkpointer ck("perfbench", cfg);
  std::vector<std::uint64_t> field(kHaloElems), halo(kHaloElems);
  std::vector<std::uint64_t> big(kBigElems), big_sum(kBigElems);
  std::array<std::byte, kBcastBytes> bc{};
  ck.register_dataset("field", field.data(), field.size() * sizeof(std::uint64_t));
  std::uint64_t epochs = 0;

  // Global step index, warmup included; segments number their steps apart
  // so every step has its own payload streams and operation id.
  int step = first * 2 * kSolveSteps;
  auto do_step = [&](bool save) {
    const std::uint32_t op = op_id(kOpCoupled, step);
    const auto st = static_cast<std::uint64_t>(step);
    // L0 compute: the new field, then the modeled compute time.
    for (int i = 0; i < kHaloElems; ++i) {
      field[i] = word(sh.key, 4000 + st, me, i);
    }
    const std::int64_t d = x.timed("sim", "base.precise_delay", op,
                                   [&] { base::precise_delay(kComputeNs); },
                                   false, kComputeNs);
    rec.delay_overshoot_us.push_back(us(d - kComputeNs));
    x.timed("core", "comm.sendrecv_halo", op, [&] {
      world.sendrecv(field.data(), kHaloElems, Datatype::uint64(), halo_ring.next[me], 1,
                     halo.data(), kHaloElems, Datatype::uint64(), halo_ring.prev[me], 1);
    });
    bool halo_ok = true;
    for (int i = 0; i < kHaloElems && halo_ok; ++i) {
      halo_ok = halo[i] == word(sh.key, 4000 + st, halo_ring.prev[me], i);
    }
    x.check(halo_ok, "halo exchange");

    const std::uint64_t h = word(sh.key, 5000 + st, 0, 0) >> 24;
    const std::uint64_t mine = h + static_cast<std::uint64_t>(me);
    std::uint64_t residual = 0;
    rec.allreduce8_us.push_back(us(x.timed("coll", "coll.allreduce8", op, [&] {
      world.allreduce(&mine, &residual, 1, Datatype::uint64(), Op::sum());
    })));
    x.check(residual == un * h + tri, "8 B allreduce");

    for (int i = 0; i < kBigElems; ++i) {
      big[i] = (word(sh.key, 6000 + st, 0, i) >> 24) + static_cast<std::uint64_t>(me);
    }
    rec.allreduce64k_us.push_back(us(x.timed("coll", "coll.allreduce64k", op, [&] {
      world.allreduce(big.data(), big_sum.data(), kBigElems, Datatype::uint64(),
                      Op::sum());
    })));
    bool big_ok = true;
    for (int i = 0; i < kBigElems && big_ok; ++i) {
      big_ok = big_sum[i] == un * (word(sh.key, 6000 + st, 0, i) >> 24) + tri;
    }
    x.check(big_ok, "64 KiB allreduce");

    const int root = step % n;
    if (me == root) {
      fill(bc.data(), bc.size(), sh.key, 7000 + st, 0);
    } else {
      bc.fill(std::byte{0});
    }
    rec.bcast512_us.push_back(us(x.timed("coll", "coll.bcast512", op, [&] {
      world.bcast(bc.data(), static_cast<int>(bc.size()), Datatype::byte(), root);
    })));
    x.check(matches(bc.data(), bc.size(), sh.key, 7000 + st, 0), "512 B bcast");

    // L1: the node leader runs the threaded phase; the others quiesce in
    // the sessions QUO barrier (Ibarrier + yield loop).
    if (q.is_node_leader()) {
      q.bind_push(quo::BindPolicy::node);
      const std::int64_t d1 = x.timed("sim", "base.precise_delay", op,
                                      [&] { base::precise_delay(kL1Ns); },
                                      false, kL1Ns);
      rec.delay_overshoot_us.push_back(us(d1 - kL1Ns));
      q.bind_pop();
    }
    rec.quo_barrier_us.push_back(
        us(x.timed("quo", "quo.barrier", op, [&] { q.barrier(); }, true)));

    if (save) {
      std::uint64_t epoch = 0;
      rec.ckpt_save_ms.push_back(
          ms(x.timed("ckpt", "ckpt.save", op, [&] { epoch = ck.save(world); })));
      ++epochs;
      std::uint64_t lo = 0, hi = 0;
      world.allreduce(&epoch, &lo, 1, Datatype::uint64(), Op::min());
      world.allreduce(&epoch, &hi, 1, Datatype::uint64(), Op::max());
      x.check(lo == hi && epoch == epochs, "checkpoint epoch uniform");
    }
    ++step;
  };

  for (int w = 0; w < kWarmupSteps; ++w) {
    do_step(false);
  }
  for (int solve = 0; solve < solves; ++solve) {
    const std::int64_t t0 = base::now_ns();
    for (int k = 0; k < kSolveSteps; ++k) {
      // Main-phase traced runs alternate steps, not solves, so both halves
      // see the same mix of checkpoint and plain steps.
      const bool traced = x.trace_run && (!main_phase || k % 2 == 1);
      set_tracing(x, world, traced);
      const bool save = k % kCkptEvery == kCkptEvery - 1;
      const std::int64_t s0 = base::now_ns();
      do_step(save);
      rec.step_ms.push_back(ms(base::now_ns() - s0));
      rec.step_ckpt.push_back(save ? 1 : 0);
      rec.step_traced.push_back(traced ? 1 : 0);
      if (me == 0 && solve == 0 && k == kSolveSteps / 2) {
        res.max_threads = std::max(res.max_threads, proc_status("Threads:"));
      }
    }
    rec.solve_s.push_back(static_cast<double>(base::now_ns() - t0) / 1e9);
  }
  set_tracing(x, world, x.trace_run);

  // The last step of a solve saves, so the field now equals the newest
  // epoch: scramble it, restore on the intact communicator, compare.
  if (epochs > 0) {
    const std::vector<std::uint64_t> expect = field;
    std::fill(field.begin(), field.end(), ~0ULL);
    ckpt::RestoreResult rr;
    x.timed("ckpt", "ckpt.restore", op_id(kOpCoupled, step), [&] { rr = ck.restore(world); });
    x.check(field == expect && rr.epoch == epochs, "checkpoint restore bitwise");
  }
  x.timed("quo", "quo.free", 0, [&] { q.free(); });
  if (me == 0) {
    res.solves = first + solves;
    res.saves += static_cast<int>(epochs);
    res.coll_ops += 3 * (step - first * 2 * kSolveSteps) + 2 * static_cast<int>(epochs);
  }
}

// --- pingpong ----------------------------------------------------------------

/// Round trips [first, first + iters), after kWarmup unrecorded ones on
/// this (fresh) cluster.
void pingpong(Ctx& x, const Shared& sh, const Communicator& c, int first, int iters) {
  const int me = c.rank();
  const int other = 1 - me;
  constexpr int kWarmup = 20;
  for (int i = -kWarmup; i < iters; ++i) {
    const bool record = i >= 0;
    const auto ui = static_cast<std::uint64_t>(record ? first + i : -i);
    const std::uint64_t stream = record ? 8000 : 8001;
    const std::uint64_t ping = word(sh.key, stream, ui, 0);
    const std::uint64_t pong = word(sh.key, stream, ui, 1);
    std::uint64_t got = 0;
    const std::uint32_t op = op_id(kOpPing, record ? first + i + 1 : 0);
    if (me == 0) {
      const std::int64_t ns = x.timed("core", "comm.pingpong", op, [&] {
        c.send(&ping, 1, Datatype::uint64(), other, 1);
        c.recv(&got, 1, Datatype::uint64(), other, 1);
      });
      x.check(got == pong, "pong payload");
      if (record) {
        x.rec.latency_us.push_back(us(ns) / 2.0);
      }
    } else {
      c.recv(&got, 1, Datatype::uint64(), other, 1);
      c.send(&pong, 1, Datatype::uint64(), other, 1);
      x.check(got == ping, "ping payload");
    }
  }
}

sim::Cluster::Options cluster_opts(int nodes, int ppn) {
  sim::Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::calibrated();
  return o;
}

/// Run `body` on every rank; a rank exception ends the run and is
/// reported (the cluster marks the rank failed so the others unwind).
template <class Body>
void run_cluster(sim::Cluster& cl, Body&& body, Results& res) {
  try {
    cl.run(body);
  } catch (const std::exception& e) {
    if (res.error.empty()) {
      res.error = e.what();
    }
  }
}

/// Pair up the obs begin/end events of one cluster's ranks (tracks) into
/// spans of recs[first + track].
void import_obs_spans(std::vector<RankRec>& recs, std::size_t first,
                      std::size_t ranks) {
  const auto events = obs::Tracer::instance().collect();
  std::map<std::int32_t, std::vector<const obs::Event*>> open;
  for (const obs::Event& ev : events) {
    if (ev.track < 0 || static_cast<std::size_t>(ev.track) >= ranks) {
      continue;
    }
    auto& stack = open[ev.track];
    if (ev.phase == obs::Phase::begin) {
      stack.push_back(&ev);
    } else if (ev.phase == obs::Phase::end) {
      // Unmatched ends (tracing toggled mid-span) are dropped.
      while (!stack.empty() && std::strcmp(stack.back()->name, ev.name) != 0) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const obs::Event* b = stack.back();
        stack.pop_back();
        recs[first + static_cast<std::size_t>(ev.track)].spans.push_back(Span{b->name, layer_of_obs_span(b->name), 0,
                                            b->ts_ns, ev.ts_ns, -1, false});
      }
    }
  }
  obs::Tracer::instance().clear();
}

}  // namespace

int Plan::iterations(Phase ph) const {
  const int fixed = ph == Phase::churn     ? kChurnRounds
                    : ph == Phase::windows ? kWindowReps
                                           : kSolves;
  if (ph != main) {
    return fixed;
  }
  return std::max(fixed, static_cast<int>(std::llround(seconds * main_per_second)));
}

std::pair<int, int> Plan::segment_share(Phase ph, int seg) const {
  return split_share(iterations(ph), kSegments, seg);
}

std::uint64_t PhaseCounters::delta(const std::string& name) const {
  const auto a = after.find(name);
  const auto b = before.find(name);
  const std::uint64_t va = a == after.end() ? 0 : a->second;
  const std::uint64_t vb = b == before.end() ? 0 : b->second;
  const std::uint64_t d = va >= vb ? va - vb : 0;
  const auto t = total.find(name);
  return d + (t == total.end() ? 0 : t->second);
}

void PhaseCounters::close_segment() {
  std::map<std::string, std::uint64_t> sum = total;
  for (const auto& [name, value] : after) {
    sum[name] = delta(name);
  }
  total = std::move(sum);
  before.clear();
  after.clear();
}

long proc_status(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtol(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

/// Rings over all ranks; windows pairs among node 0's ranks only, as in
/// the on-node osu_mbw_mr runs of Fig. 5b/5c.
Layout make_layout(int nodes, int ppn, int count, std::mt19937_64& rng) {
  std::vector<int> ranks(static_cast<std::size_t>(nodes * ppn));
  std::iota(ranks.begin(), ranks.end(), 0);
  std::vector<int> node0(ranks.begin(), ranks.begin() + ppn);
  const int pairs = std::min(kMaxPairs, ppn / 2);
  Layout l;
  for (int k = 0; k < count; ++k) {
    std::shuffle(ranks.begin(), ranks.end(), rng);
    l.rings.push_back(ranks);
    std::shuffle(node0.begin(), node0.end(), rng);
    l.pairings.emplace_back(node0.begin(), node0.begin() + 2 * pairs);
  }
  return l;
}

Inputs make_inputs(const Plan& plan, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in;
  in.payload_key = rng();
  // One layout per churn round and per windows rep: rates differ by
  // layout far more than by rep, so a run averages over as many as it
  // measures.
  const int count = std::max(plan.iterations(Phase::churn), plan.iterations(Phase::windows));
  in.main = make_layout(plan.nodes, plan.ppn, count, rng);
  if (plan.side_nodes > 0) {
    in.side = make_layout(plan.side_nodes, plan.side_ppn, count, rng);
  }
  return in;
}

Results run_workload(const Plan& plan, const Inputs& in) {
  Results res;
  const int n = plan.nodes * plan.ppn;
  const Shared sh = make_shared_view(in.payload_key, in.main, n);
  const base::Clock::time_point wall0 = base::Clock::now();

  // --- set-up cycles: cold cluster -> every rank holds a sessions comm ----
  res.setup_recs.resize(n);
  for (int cycle = 0; cycle < kSetups; ++cycle) {
    const std::int64_t t0 = base::now_ns();
    base::Stopwatch build;
    sim::Cluster cl{cluster_opts(plan.nodes, plan.ppn)};
    res.cluster_build_ms.push_back(build.elapsed_ms());
    run_cluster(cl, [&](sim::Process& p) {
      Ctx x{res.setup_recs[p.rank()], plan.trace, plan.trace};
      RankRec& rec = x.rec;
      const std::uint32_t op = op_id(kOpSetup, cycle);
      Session s;
      std::optional<Group> g;
      Communicator c;
      rec.session_init_ms.push_back(
          ms(x.timed("core", "session.init", op, [&] { s = Session::init(); })));
      rec.group_from_pset_ms.push_back(ms(x.timed(
          "core", "session.group_from_pset", op, [&] { g.emplace(s.group_from_pset("mpi://world")); })));
      x.timed("core", "comm.create_from_group", op,
              [&] { c = Communicator::create_from_group(*g, "setup"); });
      rec.comm_ready_ns = base::now_ns();
      rec.first_contact_us.push_back(
          us(ring(x, sh.key, sh.rings[static_cast<std::size_t>(cycle) % sh.rings.size()], c,
                  op, 100 + static_cast<std::uint64_t>(cycle), "comm.ring_first_contact")));
      c.barrier();
      c.free();
      rec.session_finalize_ms.push_back(
          ms(x.timed("core", "session.finalize", op, [&] { s.finalize(); })));
    }, res);
    std::int64_t ready = t0;
    for (const RankRec& r : res.setup_recs) {
      ready = std::max(ready, r.comm_ready_ns);
    }
    res.setup_s.push_back(static_cast<double>(ready - t0) / 1e9);
  }

  // --- the workload cluster (and the side cluster): every phase, the
  // main one last so it fills what is left of the time budget ----------
  std::vector<Phase> side, order;
  for (Phase ph : {Phase::churn, Phase::windows, Phase::coupled}) {
    if (ph != plan.main) {
      (plan.side_nodes > 0 ? side : order).push_back(ph);
    }
  }
  order.push_back(plan.main);
  if (plan.trace) {
    obs::Tracer::instance().clear();
    obs::Tracer::instance().set_ring_capacity(std::size_t{1} << 19);
  }
  // Record blocks: the side cluster's ranks first, then the workload
  // cluster's. Every segment appends to the same records, so iteration i
  // has the same index on every rank whichever segment ran it.
  const std::size_t side_ranks = static_cast<std::size_t>(plan.side_nodes * plan.side_ppn);
  res.main_recs.resize((side.empty() ? 0 : side_ranks) + static_cast<std::size_t>(n));
  for (Phase ph : {Phase::churn, Phase::windows, Phase::coupled}) {
    // Create the entries here: the ranks only look them up, and rank 0
    // alone writes into them.
    res.counters[ph];
    res.phase_s[ph] = 0;
  }
  const auto run_phases = [&](int nodes, int ppn, std::size_t first, const Layout& layout,
                              const std::vector<Phase>& all, int seg) {
    std::vector<Phase> phases;
    for (Phase ph : all) {
      if (plan.segment_share(ph, seg).second > 0) {
        phases.push_back(ph);
      }
    }
    if (phases.empty()) {
      return;
    }
    const int ranks = nodes * ppn;
    const Shared view = make_shared_view(in.payload_key, layout, ranks);
    obs::Tracer::instance().set_enabled(plan.trace);
    {
      sim::Cluster cl{cluster_opts(nodes, ppn)};
      run_cluster(cl, [&](sim::Process& p) {
        Ctx x{res.main_recs[first + static_cast<std::size_t>(p.rank())], plan.trace,
              plan.trace};
        Session s = Session::init();
        const Group g = s.group_from_pset("mpi://world");
        Communicator world = Communicator::create_from_group(g, "perfbench");
        for (Phase ph : phases) {
          const bool main_phase = ph == plan.main;
          const auto [it0, count] = plan.segment_share(ph, seg);
          PhaseCounters& pc = res.counters.at(ph);
          phase_edge(x, world, pc.before);
          const std::int64_t t0 = base::now_ns();
          switch (ph) {
            case Phase::churn:
              churn(x, view, g, world, it0, count, main_phase, res);
              break;
            case Phase::windows:
              windows(x, view, g, world, it0, count, main_phase, res);
              break;
            case Phase::coupled:
              coupled(x, view, world, it0, count, main_phase, res);
              break;
          }
          phase_edge(x, world, pc.after);
          if (world.rank() == 0) {
            pc.close_segment();
            res.phase_s.at(ph) += static_cast<double>(base::now_ns() - t0) / 1e9;
          }
        }
        world.free();
        s.finalize();
      }, res);
    }
    if (plan.trace) {
      obs::Tracer::instance().set_enabled(false);
      import_obs_spans(res.main_recs, first, static_cast<std::size_t>(ranks));
    }
  };
  res.pp_recs.resize(2);
  for (int seg = 0; seg < kSegments; ++seg) {
    res.run.before = snapshot_counters();
    if (!side.empty()) {
      run_phases(plan.side_nodes, plan.side_ppn, 0, in.side, side, seg);
    }
    run_phases(plan.nodes, plan.ppn, side.empty() ? 0 : side_ranks, in.main, order, seg);
    res.run.after = snapshot_counters();
    res.run.close_segment();

    // 8 B ping-pong on its own 1x2 cluster (Fig. 5a), a share per segment
    // so its tail samples the whole run rather than one moment of it.
    const auto [first, count] = split_share(kPingpongs, kSegments, seg);
    sim::Cluster cl{cluster_opts(1, 2)};
    run_cluster(cl, [&](sim::Process& p) {
      Ctx x{res.pp_recs[p.rank()], plan.trace, plan.trace};
      Session s = Session::init();
      Communicator c = Communicator::create_from_group(s.group_from_pset("mpi://world"), "pingpong");
      pingpong(x, sh, c, first, count);
      c.free();
      s.finalize();
    }, res);
  }

  res.wall_s = std::chrono::duration<double>(base::Clock::now() - wall0).count();
  return res;
}

}  // namespace perfbench
