// acorn_perf — the repository benchmark's harness.
//
//   acorn_perf --workload NAME --seed N --seconds S --trace 0|1
//              --acornd PATH [--record FILE] [--commit ID]
//
// Drives the shipped acornd binary, started as a child process with
// explicit flags, from one load-generating process (at most two
// threads, one connection), and runs the DCB gap report in-process.
// Every input (WLAN floors, event schedules, drifts, drops) is generated
// from --seed before anything is timed; phase sizes scale with
// --seconds, so a (seed, seconds) pair always yields the same work.
//
// Every reply is type-checked against its request; an ErrorReply, a
// wrong type, a lost connection or a missing reply fails the run, as
// does a StatsReply whose events_total disagrees with the replies
// received, a WLAN whose state differs after a crash and restart, an
// inexact gap scenario, or a gap prefix that does not reproduce.
//
// Output: human-readable lines (stamps, digests, sample counts), then
// one JSON line {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end set; with --trace 1 the per-layer set,
// and the spans recorded around client calls are written next to
// --record. Exit status 0 only when every check passed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <variant>
#include <vector>

#include "child.hpp"
#include "dcb/gap_report.hpp"
#include "dcb/random_drop.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "service/client.hpp"
#include "service/eventlog.hpp"
#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "sim/deployment_file.hpp"
#include "trace/load_gen.hpp"
#include "util/rng.hpp"

using namespace acorn;
using namespace acorn::service;
using perfbench::Outcome;

namespace {

constexpr const char* kSocket = "acornd.sock";
constexpr const char* kStateDir = "state";
constexpr int kDaemonWorkers = 2;
// Setup runs at least kSetupRepeats times, and again while the repeats
// have taken under kSetupBudgetS, up to kSetupMaxRepeats.
constexpr int kSetupRepeats = 5;
constexpr int kSetupMaxRepeats = 60;
constexpr double kSetupBudgetS = 2.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Run-wide state -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string acornd;
  std::string record;
  std::string commit = "unknown";
};

/// FNV-1a over bytes; the run's config and result digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
};

struct Run {
  Options opt;
  perfbench::FailureTally tally;
  std::vector<std::string> errors;
  std::vector<perfbench::Span> spans;
  std::uint64_t next_request = 1;
  /// Replies received from the current daemon instance (the expected
  /// StatsReply.events_total: the daemon counts every frame it
  /// dispatches, the stats request included).
  std::uint64_t acked = 0;
  std::map<std::string, double> e2e;
  perfbench::LayerMetrics layer;
  std::vector<std::string> notes;
  Digest config_digest;
  Digest result_digest;
  /// Event requests the workload sent, for the wire/WAL layers.
  std::vector<Message> event_requests;
  /// Per-layer metrics the workload does not take (a traced run fails
  /// when any other one is missing).
  std::vector<std::string> unmeasured;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void note(const std::string& line) {
    notes.push_back(line);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
};

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

// ---- The generator ------------------------------------------------------

struct Op {
  Message msg;
  MsgType expect = MsgType::kOkReply;
};

struct PhaseResult {
  double wall_s = 0.0;
  /// Per op, microseconds; +inf for a failed op (it misses any limit).
  std::vector<double> latency_us;
  /// Open loop only: how late each op was sent, microseconds.
  std::vector<double> late_us;
  std::vector<Message> replies;
};

Outcome classify(const Message& reply, MsgType expect) {
  if (std::holds_alternative<ErrorReply>(reply)) return Outcome::kErrorReply;
  if (type_of(reply) != expect) return Outcome::kWrongType;
  return Outcome::kOk;
}

/// Per-op timestamps the generator keeps; spans are built from them
/// after the phase so recording costs the timed loop two stores.
struct OpTimes {
  std::vector<double> send0;
  std::vector<double> send1;
  std::vector<double> done;
  explicit OpTimes(std::size_t n) : send0(n, 0.0), send1(n, 0.0), done(n, 0.0) {}
};

/// Spans kept per run (two per request): the client layer figures and
/// the span file cover the run's first kMaxSpans / 2 requests, which
/// bounds the traced run's memory on the largest workload.
constexpr std::size_t kMaxSpans = 400000;

void record_spans(Run& run, const OpTimes& t, const PhaseResult& r) {
  if (!run.opt.trace) return;
  auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  for (std::size_t i = 0; i < t.done.size() && run.spans.size() < kMaxSpans;
       ++i) {
    if (!std::isfinite(r.latency_us[i])) continue;
    const std::uint64_t req = run.next_request++;
    const auto id = static_cast<std::uint32_t>(run.spans.size() + 1);
    run.spans.push_back({id, 0, "request", ns(t.send0[i]), ns(t.done[i]), req});
    run.spans.push_back({id + 1, id, "client.send", ns(t.send0[i]),
                         ns(t.send1[i]), req});
  }
}

/// Receives replies for one phase: matches each to its op by seq,
/// type-checks it, and stamps its completion time. Ops that never get a
/// reply count as missing (receive timeout) or lost (connection broke).
/// Latencies are computed by the caller once the phase is over, from
/// the stamps, so the receiver never reads what the sender writes.
class ReplyCollector {
 public:
  ReplyCollector(Run& run, Client& client, const std::vector<Op>& ops,
                 PhaseResult& result, OpTimes& times, bool keep)
      : run_(run), client_(client), ops_(ops), result_(result),
        times_(times), keep_(keep), got_(ops.size(), false),
        ok_(ops.size(), false) {}

  void set_base(std::uint32_t seq) { base_ = seq; }

  /// Blocks for one reply to any of the first `sent` ops. Returns false
  /// once the connection failed.
  bool receive_one(std::size_t sent) {
    Frame f;
    try {
      f = client_.recv();
    } catch (const std::system_error& e) {
      fail_outstanding(sent, Outcome::kMissing, e.what());
      return false;
    } catch (const std::exception& e) {
      fail_outstanding(sent, Outcome::kLost, e.what());
      return false;
    }
    const double t = perfbench::now_s();
    const std::size_t idx = f.seq - base_;
    if (f.seq < base_ || idx >= sent || got_[idx]) {
      run_.check(false, fmt("reply with unexpected seq %u", f.seq));
      return true;
    }
    got_[idx] = true;
    ++received_;
    ++run_.acked;
    times_.done[idx] = t;
    const Outcome o = classify(f.msg, ops_[idx].expect);
    run_.tally.add(o);
    ok_[idx] = o == Outcome::kOk;
    if (!ok_[idx]) {
      std::string why = "wrong reply type";
      if (const auto* e = std::get_if<ErrorReply>(&f.msg)) {
        why = fmt("error %u: %s", e->code, e->text.c_str());
      }
      run_.check(false, fmt("request %zu (type %u) failed: %s", idx,
                            static_cast<unsigned>(type_of(ops_[idx].msg)),
                            why.c_str()));
    }
    if (keep_) result_.replies[idx] = std::move(f.msg);
    return true;
  }

  std::size_t received() const { return received_; }

  /// Latency of op i from `start[i]` to its reply, microseconds; +inf
  /// for a failed op, which misses any latency limit.
  void latencies(const std::vector<double>& start) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Outcome o = ok_[i] ? Outcome::kOk : Outcome::kMissing;
      result_.latency_us[i] =
          perfbench::charged_latency(o, 1e6 * (times_.done[i] - start[i]));
    }
  }

 private:
  void fail_outstanding(std::size_t sent, Outcome o, const std::string& why) {
    for (std::size_t i = 0; i < sent; ++i) {
      if (got_[i]) continue;
      got_[i] = true;
      run_.tally.add(o);
    }
    run_.check(false, "connection failed: " + why);
  }

  Run& run_;
  Client& client_;
  const std::vector<Op>& ops_;
  PhaseResult& result_;
  OpTimes& times_;
  bool keep_;
  std::vector<bool> got_;
  std::vector<bool> ok_;
  std::uint32_t base_ = 0;
  std::size_t received_ = 0;
};

/// Closed loop: at most `window` requests outstanding; the next request
/// goes out only when a reply frees a slot.
PhaseResult closed_loop(Run& run, Client& client, const std::vector<Op>& ops,
                        std::size_t window, bool keep = false) {
  PhaseResult r;
  r.latency_us.assign(ops.size(), kInf);
  if (keep) r.replies.resize(ops.size());
  OpTimes t(ops.size());
  ReplyCollector rc(run, client, ops, r, t, keep);
  const double t0 = perfbench::now_s();
  std::size_t sent = 0;
  bool ok = true;
  while (ok && rc.received() < ops.size()) {
    while (sent < ops.size() && sent - rc.received() < window) {
      t.send0[sent] = perfbench::now_s();
      const std::uint32_t seq = client.send(ops[sent].msg);
      t.send1[sent] = perfbench::now_s();
      if (sent == 0) rc.set_base(seq);
      ++sent;
    }
    ok = rc.receive_one(sent);
  }
  r.wall_s = perfbench::now_s() - t0;
  if (!ok) throw std::runtime_error("daemon connection failed");
  rc.latencies(t.send0);
  record_spans(run, t, r);
  return r;
}

/// Open loop: op i is due at start + i / rate whatever the replies do.
/// A second thread sends on schedule; this thread receives. Latency is
/// taken from the due time, lateness is send time minus due time.
PhaseResult open_loop(Run& run, Client& client, const std::vector<Op>& ops,
                      double rate) {
  PhaseResult r;
  r.latency_us.assign(ops.size(), kInf);
  r.late_us.assign(ops.size(), 0.0);
  OpTimes t(ops.size());
  ReplyCollector rc(run, client, ops, r, t, false);
  std::vector<double> due(ops.size());
  const double start = perfbench::now_s() + 1e-3;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    due[i] = start + static_cast<double>(i) / rate;
  }
  // Op 0 goes out from this thread so the base seq is known before any
  // reply is matched; seqs then run contiguously from it.
  while (perfbench::now_s() < due[0]) {
  }
  t.send0[0] = perfbench::now_s();
  rc.set_base(client.send(ops[0].msg));
  t.send1[0] = perfbench::now_s();
  std::atomic<bool> send_failed{false};
  std::thread sender([&] {
    try {
      for (std::size_t i = 1; i < ops.size(); ++i) {
        const double wait = due[i] - perfbench::now_s();
        if (wait > 300e-6) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(wait - 150e-6));
        }
        while (perfbench::now_s() < due[i]) {
        }
        t.send0[i] = perfbench::now_s();
        client.send(ops[i].msg);
        t.send1[i] = perfbench::now_s();
      }
    } catch (const std::exception&) {
      send_failed.store(true);
    }
  });
  bool ok = true;
  while (ok && rc.received() < ops.size() && !send_failed.load()) {
    ok = rc.receive_one(ops.size());
  }
  sender.join();
  r.wall_s = perfbench::now_s() - start;
  if (!ok || send_failed.load()) {
    throw std::runtime_error("daemon connection failed in open loop");
  }
  rc.latencies(due);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    r.late_us[i] =
        1e6 * perfbench::lateness({due[i], t.send0[i], t.done[i]});
  }
  record_spans(run, t, r);
  return r;
}

Message rpc(Run& run, Client& client, Message msg, MsgType expect) {
  std::vector<Op> ops{Op{std::move(msg), expect}};
  PhaseResult r = closed_loop(run, client, ops, 1, true);
  return std::move(r.replies[0]);
}

// ---- The fleet ----------------------------------------------------------

/// One WLAN as the generator knows it: its deployment text and its
/// base AP->client losses (drifts move around these).
struct FleetWlan {
  std::uint32_t id = 0;
  std::string deployment;
  int aps = 0;
  int clients = 0;
  std::vector<std::vector<double>> base_loss;  // [ap][client]
};

struct Fleet {
  std::vector<FleetWlan> wlans;
  bool durable = false;
  bool join_in_setup = true;
};

FleetWlan make_wlan(std::uint32_t id, std::string deployment) {
  FleetWlan w;
  w.id = id;
  w.deployment = std::move(deployment);
  const sim::DeploymentSpec spec = sim::parse_deployment(w.deployment);
  const sim::Wlan built = spec.build();
  w.aps = built.topology().num_aps();
  w.clients = built.topology().num_clients();
  w.base_loss.assign(static_cast<std::size_t>(w.aps),
                     std::vector<double>(static_cast<std::size_t>(w.clients)));
  for (int a = 0; a < w.aps; ++a) {
    for (int c = 0; c < w.clients; ++c) {
      w.base_loss[a][c] = built.budget().ap_client_loss_db(a, c);
    }
  }
  return w;
}

Op snr_drift(const FleetWlan& w, util::Rng& rng) {
  const auto ap = static_cast<std::uint32_t>(rng.uniform_int(0, w.aps - 1));
  const auto c = static_cast<std::uint32_t>(rng.uniform_int(0, w.clients - 1));
  const double loss = w.base_loss[ap][c] + rng.uniform(-3.0, 3.0);
  return Op{SnrUpdate{w.id, ap, c, loss}};
}

Op load_hint(const FleetWlan& w, util::Rng& rng) {
  const auto c = static_cast<std::uint32_t>(rng.uniform_int(0, w.clients - 1));
  return Op{LoadUpdate{w.id, c, rng.uniform(0.1, 1.0)}};
}

void digest_ops(Run& run, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    const std::vector<std::uint8_t> p = encode_payload(0, op.msg);
    run.config_digest.bytes(p.data(), p.size());
  }
}

/// The wire and WAL layers are timed on (at most) the first
/// kMaxKeptEvents event requests the workload sends.
constexpr std::size_t kMaxKeptEvents = 50000;

void keep_events(Run& run, const std::vector<Op>& ops) {
  if (!run.opt.trace) return;
  for (const Op& op : ops) {
    if (run.event_requests.size() >= kMaxKeptEvents) return;
    run.event_requests.push_back(op.msg);
  }
}

/// The daemon under test plus the generator's one connection to it.
struct Daemon {
  perfbench::DaemonProcess proc;
  Client client;
  Daemon(const Options& opt, bool durable)
      : proc(opt.acornd, args(durable), kSocket, "acornd.log") {}

  static std::vector<std::string> args(bool durable) {
    std::vector<std::string> a{"--unix", kSocket, "--workers",
                               std::to_string(kDaemonWorkers), "--epoch-s",
                               "0"};
    if (durable) {
      a.push_back("--state-dir");
      a.push_back(kStateDir);
    }
    return a;
  }

  void start(Run& run) {
    run.acked = 0;
    proc.start();
    client = proc.connect();
    client.set_recv_timeout_ms(30000);
  }
};

StatsReply stats(Run& run, Client& client) {
  const Message m = rpc(run, client, QueryStats{}, MsgType::kStatsReply);
  if (const auto* s = std::get_if<StatsReply>(&m)) return *s;
  return {};
}

/// Start the daemon and register (and join) the fleet, repeatedly from
/// an empty state; the last instance stays up for the run.
/// setup_s is the median; phy.register_us the median RegisterWlan
/// round trip.
void setup(Run& run, Daemon& d, Fleet& fleet) {
  std::vector<double> setup_s;
  std::vector<double> register_us;
  std::vector<Op> regs;
  std::vector<Op> joins;
  for (const FleetWlan& w : fleet.wlans) {
    regs.push_back(Op{RegisterWlan{w.id, w.deployment}});
    if (!fleet.join_in_setup) continue;
    for (int c = 0; c < w.clients; ++c) {
      joins.push_back(Op{ClientJoin{w.id, static_cast<std::uint32_t>(c)}});
    }
  }
  digest_ops(run, regs);
  digest_ops(run, joins);
  double spent = 0.0;
  for (int k = 0; k < kSetupMaxRepeats; ++k) {
    if (fleet.durable) perfbench::remove_tree(kStateDir);
    const double t0 = perfbench::now_s();
    d.start(run);
    const PhaseResult r = closed_loop(run, d.client, regs, 1);
    closed_loop(run, d.client, joins, 64);
    setup_s.push_back(perfbench::now_s() - t0);
    spent += setup_s.back();
    register_us.insert(register_us.end(), r.latency_us.begin(),
                       r.latency_us.end());
    const bool last = k + 1 >= kSetupRepeats && spent >= kSetupBudgetS;
    if (last || k + 1 == kSetupMaxRepeats) break;
    rpc(run, d.client, Shutdown{}, MsgType::kOkReply);
    d.client.close();
    d.proc.wait_exit();
  }
  run.e2e["setup_s"] = perfbench::median(setup_s);
  run.layer["phy.register_us"] = perfbench::median(register_us);
  std::string samples;
  for (const double x : setup_s) samples += fmt(" %.4f", x);
  run.note(fmt("setup: %zu WLANs, %zu joins; setup_s samples", regs.size(),
               joins.size()) + samples);
}

std::vector<Message> query_configs(Run& run, Client& client,
                                   const Fleet& fleet) {
  std::vector<Op> ops;
  for (const FleetWlan& w : fleet.wlans) {
    ops.push_back(Op{QueryConfig{w.id}, MsgType::kConfigReply});
  }
  return closed_loop(run, client, ops, 64, true).replies;
}

bool same_state(const ConfigReply& a, const ConfigReply& b) {
  return a.wlan_id == b.wlan_id && a.events_applied == b.events_applied &&
         a.association == b.association && a.allocated == b.allocated &&
         a.operating == b.operating;
}

/// The fleet's final goodput (the quality of ACORN's decisions) from
/// config replies, folded into the result digest.
void report_goodput(Run& run, const std::vector<Message>& configs) {
  double bps = 0.0;
  for (const Message& m : configs) {
    if (const auto* c = std::get_if<ConfigReply>(&m)) {
      bps += c->total_goodput_bps;
      run.result_digest.u64(c->events_applied);
      run.result_digest.f64(c->total_goodput_bps);
    }
  }
  run.e2e["goodput_mbps"] = bps / 1e6;
  run.result_digest.f64(bps);
  run.note(fmt("goodput: %.6f Mbps over %zu WLANs", bps / 1e6,
               configs.size()));
}

/// Check the daemon's frame count against the replies received from
/// this instance, and that it saw no protocol errors.
void check_stats(Run& run, Client& client, const char* when) {
  const StatsReply s = stats(run, client);
  run.check(s.events_total == run.acked,
            fmt("%s: StatsReply.events_total %llu != %llu replies received",
                when, static_cast<unsigned long long>(s.events_total),
                static_cast<unsigned long long>(run.acked)));
  run.check(s.protocol_errors == 0, fmt("%s: %llu protocol errors", when,
                                        static_cast<unsigned long long>(
                                            s.protocol_errors)));
}

/// Value at quantile q of a log2-bucket histogram (bucket i holds
/// [2^i, 2^(i+1)) us; bucket 0 is < 2 us), reported as the bucket's
/// midpoint.
double log2_quantile(const std::vector<std::uint64_t>& hist, double q) {
  std::uint64_t total = 0;
  for (const auto n : hist) total += n;
  if (total == 0) return 0.0;
  const double want = std::ceil(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    cum += hist[i];
    if (static_cast<double>(cum) >= want) {
      return i == 0 ? 1.0 : 1.5 * std::ldexp(1.0, static_cast<int>(i));
    }
  }
  return 0.0;
}

void daemon_layers(Run& run, const StatsReply& s) {
  run.layer["daemon.request_p50_us"] = log2_quantile(s.latency_us_log2, 0.5);
  run.layer["daemon.request_p99_us"] = log2_quantile(s.latency_us_log2, 0.99);
  run.layer["daemon.frames_rx"] = static_cast<double>(s.frames_rx);
  run.layer["daemon.protocol_errors"] = static_cast<double>(s.protocol_errors);
  run.layer["wal.syncs"] = static_cast<double>(s.wal_syncs);
  if (s.wal_syncs == 0) return;
  run.layer["wal.events_per_sync"] = static_cast<double>(s.wal_coalesced_events) /
                                     static_cast<double>(s.wal_syncs);
  run.layer["wal.sync_p50_us"] = log2_quantile(s.wal_sync_us_log2, 0.5);
  run.layer["wal.sync_p99_us"] = log2_quantile(s.wal_sync_us_log2, 0.99);
}

struct RoundsResult {
  std::vector<double> event_us;
  std::vector<double> epoch_us;
  double wall_s = 0.0;
  std::size_t events = 0;
  std::size_t epochs = 0;
};

/// Rounds of drift SnrUpdates per WLAN followed by its ForceReconfigure,
/// each round pipelined across the fleet; events and epochs are timed
/// from the same rounds.
RoundsResult epoch_rounds(Run& run, Client& client,
                          const std::vector<std::vector<Op>>& rounds) {
  RoundsResult out;
  for (const std::vector<Op>& ops : rounds) {
    const PhaseResult r = closed_loop(run, client, ops, ops.size());
    out.wall_s += r.wall_s;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (std::holds_alternative<ForceReconfigure>(ops[i].msg)) {
        out.epoch_us.push_back(r.latency_us[i]);
        ++out.epochs;
      } else {
        out.event_us.push_back(r.latency_us[i]);
        ++out.events;
      }
    }
  }
  return out;
}

std::vector<std::vector<Op>> make_rounds(const Fleet& fleet, int rounds, int drifts,
                                         util::Rng& rng, bool reconfigure) {
  std::vector<std::vector<Op>> out(static_cast<std::size_t>(rounds));
  for (auto& ops : out) {
    for (const FleetWlan& w : fleet.wlans) {
      for (int k = 0; k < drifts; ++k) ops.push_back(snr_drift(w, rng));
      if (reconfigure) ops.push_back(Op{ForceReconfigure{w.id}});
    }
  }
  return out;
}

/// Per-layer figures taken in this process after the daemon phases.
/// The snapshot and core layers are timed on (at most 16 of) the states
/// the daemon checkpointed, as load_snapshots reads them back.
void traced_layers(Run& run, std::vector<WlanSnapshot> states) {
  perfbench::time_wire(run.event_requests, run.layer);
  perfbench::time_wal_encode(run.event_requests, run.layer);
  perfbench::time_executor_handoff(kDaemonWorkers, 2000, run.layer);
  if (states.size() > 16) states.resize(16);
  perfbench::time_snapshot(states, "layer_snapshots", run.layer);
  perfbench::time_core(states, run.layer);
}

// ---- The gap report -----------------------------------------------------

bool same_scenario(const dcb::GapScenario& a, const dcb::GapScenario& b) {
  return a.acorn_bps == b.acorn_bps && a.optimal_bps == b.optimal_bps &&
         a.gap == b.gap && a.exact == b.exact &&
         a.acorn_evaluations == b.acorn_evaluations &&
         a.optimal_evaluations == b.optimal_evaluations &&
         a.policy_bps == b.policy_bps;
}

// ---- Slices -------------------------------------------------------------
//
// A run is cut into kSlices slices, and each slice runs every phase of
// the workload once: events, epochs, churn and a crash, gap scenarios.
// A rate or a percentile is taken per slice and the median across
// slices is reported, so a burst of interference on a shared box moves
// one slice rather than the result; the pooled samples give the counts.
// Quality figures (goodput, gap) and exact counts pool every slice and
// are deterministic at a fixed seed.

constexpr int kSlices = 16;

struct Series {
  std::vector<double> pooled;
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;

  void add(const std::vector<double>& us, std::size_t n, double wall_s) {
    pooled.insert(pooled.end(), us.begin(), us.end());
    rate.push_back(static_cast<double>(n) / wall_s);
    const perfbench::LatencySummary s = perfbench::summarize(us);
    p50.push_back(s.p50);
    p99.push_back(s.p99);
  }
};

std::string list(const std::vector<double>& v, double scale) {
  std::string out;
  for (const double x : v) out += fmt(" %.4g", x * scale);
  return out;
}

/// Store the medians across slices under the given end-to-end names
/// (nullptr: print only) and print the pooled summary with its counts.
void report_series(Run& run, const std::string& what, const Series& s,
                   const char* rate_key, const char* p50_key,
                   const char* p99_key, double scale, const char* unit) {
  if (s.rate.empty()) return;
  if (rate_key != nullptr) run.e2e[rate_key] = perfbench::median(s.rate);
  if (p50_key != nullptr) run.e2e[p50_key] = perfbench::median(s.p50) * scale;
  if (p99_key != nullptr) run.e2e[p99_key] = perfbench::median(s.p99) * scale;
  const perfbench::LatencySummary all = perfbench::summarize(s.pooled);
  run.note(fmt("%s: n=%zu in %zu slices; pooled p50=%.4g%s p99=%.4g%s (%zu "
               "beyond p99); highest percentile with >=10 beyond: p%g=%.4g%s",
               what.c_str(), all.count, s.rate.size(), all.p50 * scale, unit,
               all.p99 * scale, unit, all.beyond_p99, all.top_level,
               all.top_value * scale, unit));
  run.note("  per-slice rate/s:" + list(s.rate, 1.0) + " | p50:" +
           list(s.p50, scale) + " | p99:" + list(s.p99, scale));
}

/// Exact per-epoch counts summed over the epoch phases, from the stats
/// before and after each one.
struct EpochCounts {
  std::uint64_t epochs = 0, evals = 0, cell_hits = 0, cell_evals = 0,
                share_hits = 0, share_evals = 0, assoc = 0, channel = 0,
                width = 0;

  void add(const StatsReply& a, const StatsReply& b) {
    epochs += b.epochs_total - a.epochs_total;
    evals += b.alloc_evaluations - a.alloc_evaluations;
    cell_hits += b.oracle_cell_hits - a.oracle_cell_hits;
    cell_evals += b.oracle_cell_evals - a.oracle_cell_evals;
    share_hits += b.oracle_share_hits - a.oracle_share_hits;
    share_evals += b.oracle_share_evals - a.oracle_share_evals;
    assoc += b.assoc_changes - a.assoc_changes;
    channel += b.channel_switches - a.channel_switches;
    width += b.width_switches - a.width_switches;
  }

  void report(Run& run) const {
    const double n = static_cast<double>(epochs);
    auto per_epoch = [n](std::uint64_t x) {
      return n > 0 ? static_cast<double>(x) / n : 0.0;
    };
    auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0;
    };
    run.layer["alloc.evals_per_epoch"] = per_epoch(evals);
    run.layer["oracle.cell_hit_ratio"] = ratio(cell_hits, cell_evals);
    run.layer["oracle.share_hit_ratio"] = ratio(share_hits, share_evals);
    run.layer["epoch.assoc_changes"] = per_epoch(assoc);
    run.layer["epoch.channel_switches"] = per_epoch(channel);
    run.layer["epoch.width_switches"] = per_epoch(width);
    for (const std::uint64_t v : {epochs, evals, cell_hits, cell_evals,
                                  share_hits, share_evals, assoc, channel,
                                  width}) {
      run.result_digest.u64(v);
    }
    run.note(fmt("epoch counts: %llu epochs, %llu evals, cell hits %llu / "
                 "evals %llu, share hits %llu / evals %llu, assoc changes "
                 "%llu, channel switches %llu, width switches %llu",
                 static_cast<unsigned long long>(epochs),
                 static_cast<unsigned long long>(evals),
                 static_cast<unsigned long long>(cell_hits),
                 static_cast<unsigned long long>(cell_evals),
                 static_cast<unsigned long long>(share_hits),
                 static_cast<unsigned long long>(share_evals),
                 static_cast<unsigned long long>(assoc),
                 static_cast<unsigned long long>(channel),
                 static_cast<unsigned long long>(width)));
  }
};

/// What a run accumulates across its slices.
struct Acc {
  Series events;
  Series epochs;
  EpochCounts counts;
  std::vector<double> recovery_s;
  long peak_rss_kb = 0;
  std::vector<Message> configs;  // last acknowledged fleet state
  std::vector<WlanSnapshot> states;  // checkpoints read before crash 1
  // Open-loop events, latency from the due time; generator lateness.
  Series open;
  std::vector<double> late_us;
  // Gap report, pooled over slices.
  std::vector<double> gap_rate;
  double gap_sum = 0.0;
  int gap_exact = 0;
  int gap_scenarios = 0;
  long long optimal_evals = 0;
  long long acorn_evals = 0;
};

/// One open-loop phase at `rate` events/s: latency from the due time
/// into the run's open series, and the generator's lateness.
void open_phase(Run& run, Acc& acc, Client& client, const std::vector<Op>& ops,
                double rate) {
  const PhaseResult r = open_loop(run, client, ops, rate);
  acc.open.add(r.latency_us, ops.size(), r.wall_s);
  acc.late_us.insert(acc.late_us.end(), r.late_us.begin(), r.late_us.end());
}

/// One slice's gap scenarios: dcb::run_gap_report on the default dense
/// drop family with two sweep threads, seeded per slice. Every scenario
/// must reach the exact optimum; in the first slice a single-threaded
/// re-run of the first scenarios must reproduce them bit for bit.
void gap_slice(Run& run, Acc& acc, int slice, int scenarios) {
  dcb::GapReportConfig cfg;
  cfg.num_scenarios = scenarios;
  cfg.seed = run.opt.seed * kSlices + static_cast<std::uint64_t>(slice);
  cfg.num_threads = 2;
  run.config_digest.u64(cfg.seed);
  run.config_digest.u64(static_cast<std::uint64_t>(scenarios));
  const double t0 = perfbench::now_s();
  const dcb::GapReport report = dcb::run_gap_report(cfg);
  acc.gap_rate.push_back(static_cast<double>(scenarios) /
                         (perfbench::now_s() - t0));
  for (const dcb::GapScenario& s : report.scenarios) {
    // An inexact scenario is a wrong answer: no optimum to measure from.
    run.tally.add(s.exact ? Outcome::kOk : Outcome::kWrongType);
    if (s.exact) acc.gap_sum += s.gap;
    acc.optimal_evals += s.optimal_evaluations;
    acc.acorn_evals += s.acorn_evaluations;
  }
  acc.gap_exact += report.num_exact;
  acc.gap_scenarios += scenarios;
  run.check(report.num_exact == scenarios,
            fmt("gap: only %d of %d scenarios exact", report.num_exact,
                scenarios));
  if (slice != 0) return;
  dcb::GapReportConfig prefix = cfg;
  prefix.num_scenarios = std::min(scenarios, 4);
  prefix.num_threads = 1;
  const dcb::GapReport again = dcb::run_gap_report(prefix);
  for (int i = 0; i < prefix.num_scenarios; ++i) {
    run.check(same_scenario(report.scenarios[static_cast<std::size_t>(i)],
                            again.scenarios[static_cast<std::size_t>(i)]),
              fmt("gap: scenario %d differs between 2 threads and 1", i));
  }
}

/// End of a slice for the daemon workloads: read the acknowledged
/// state, check the daemon's frame count, SIGKILL it, restart it on the
/// same flags (and state dir) and time the first reply. A durable fleet
/// must come back exactly as acknowledged; a non-durable one is
/// registered (and joined) again, untimed, for the next slice.
void crash_slice(Run& run, Acc& acc, Daemon& d, const Fleet& fleet,
                 int slice, const std::vector<Op>& rebuild) {
  acc.configs = query_configs(run, d.client, fleet);
  check_stats(run, d.client, "before crash");
  if (slice == 0) daemon_layers(run, stats(run, d.client));
  acc.peak_rss_kb = std::max(acc.peak_rss_kb, d.proc.peak_rss_kb());
  if (run.opt.trace && fleet.durable && slice == 0) {
    // The files the restart will read, timed through the recovery
    // layer's own loaders (nothing writes them once all is acked).
    const double t0 = perfbench::now_s();
    acc.states = load_snapshots(kStateDir);
    const double t1 = perfbench::now_s();
    const SegmentLoadResult segs = load_wal_segments(kStateDir);
    const double t2 = perfbench::now_s();
    std::size_t records = 0;
    for (const auto& [id, recs] : segs.records) records += recs.size();
    run.layer["snapshot.load_ms"] = 1e3 * (t1 - t0);
    run.layer["wal.load_ms"] = 1e3 * (t2 - t1);
    run.note(fmt("recovery input: %zu snapshots, %zu WAL records in %zu "
                 "segments",
                 acc.states.size(), records, segs.segments.size()));
  }
  const double t0 = perfbench::now_s();
  d.proc.kill9();
  d.client.close();
  d.start(run);
  rpc(run, d.client, QueryStats{}, MsgType::kStatsReply);
  acc.recovery_s.push_back(perfbench::now_s() - t0);
  if (run.layer.count("snapshot.load_ms") != 0 && slice == 0) {
    run.layer["recovery.replay_s"] =
        acc.recovery_s[0] - 1e-3 * (run.layer["snapshot.load_ms"] +
                                    run.layer["wal.load_ms"]);
  }
  if (!fleet.durable) {
    closed_loop(run, d.client, rebuild, 64);
    return;
  }
  const std::vector<Message> after = query_configs(run, d.client, fleet);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < acc.configs.size(); ++i) {
    const auto* x = std::get_if<ConfigReply>(&acc.configs[i]);
    const auto* y = std::get_if<ConfigReply>(&after[i]);
    if (x == nullptr || y == nullptr || !same_state(*x, *y)) ++mismatches;
  }
  run.check(mismatches == 0,
            fmt("durability: %zu of %zu WLANs differ after restart %d",
                mismatches, acc.configs.size(), slice + 1));
  run.note(fmt("crash %d: %zu of %zu WLANs differ after SIGKILL + restart",
               slice + 1, mismatches, acc.configs.size()));
  check_stats(run, d.client, "after recovery");
}

/// Report what the slices accumulated, then the traced layers and a
/// clean shutdown of the daemon.
void finish(Run& run, Acc& acc, Daemon& d) {
  report_series(run, "epochs (ForceReconfigure round trip)", acc.epochs,
                "epochs_per_s", "epoch_p50_ms", "epoch_p99_ms", 1e-3, "ms");
  acc.counts.report(run);
  run.e2e["recovery_s"] = perfbench::median(acc.recovery_s);
  run.note("recovery_s per slice:" + list(acc.recovery_s, 1.0));
  run.e2e["peak_rss_mb"] = static_cast<double>(acc.peak_rss_kb) / 1024.0;
  report_goodput(run, acc.configs);

  run.e2e["scenarios_per_s"] = perfbench::median(acc.gap_rate);
  const double mean_gap =
      acc.gap_exact > 0 ? acc.gap_sum / acc.gap_exact : 0.0;
  run.e2e["gap_mean_pct"] = 100.0 * mean_gap;
  run.layer["gap.optimal_evals"] = static_cast<double>(acc.optimal_evals);
  run.layer["gap.acorn_evals"] = static_cast<double>(acc.acorn_evals);
  run.result_digest.f64(mean_gap);
  run.result_digest.u64(static_cast<std::uint64_t>(acc.optimal_evals));
  run.result_digest.u64(static_cast<std::uint64_t>(acc.acorn_evals));
  run.note(fmt("gap report: %d scenarios (%d exact), mean gap %.4f%%; evals "
               "optimal %lld acorn %lld; scenarios/s per slice",
               acc.gap_scenarios, acc.gap_exact, 100.0 * mean_gap,
               acc.optimal_evals, acc.acorn_evals) +
           list(acc.gap_rate, 1.0));

  if (!acc.late_us.empty()) {
    const perfbench::LatencySummary gl = perfbench::summarize(acc.late_us);
    run.layer["gen.late_p99_us"] = gl.p99;
    run.note(fmt("generator lateness: n=%zu p50 %.1f us p99 %.1f us",
                 gl.count, gl.p50, gl.p99));
  }
  if (run.opt.trace) {
    traced_layers(run, std::move(acc.states));
    perfbench::time_dcb(run.opt.seed, 8, run.layer);
  }
  rpc(run, d.client, Shutdown{}, MsgType::kOkReply);
  d.client.close();
  run.check(d.proc.wait_exit() == 0, "acornd did not exit cleanly");
}

// ---- Workloads ----------------------------------------------------------
//
// Every workload reports every end-to-end metric; each stresses one
// part of the system and runs the others at a smaller, fixed size.
// Sizes are nominal rates times --seconds (the rates were measured on a
// 4-thread x86 VM), so a (seed, seconds) pair always means the same work.

struct Sizes {
  double s;  // --seconds
  /// Per-slice count for a nominal per-second rate.
  std::size_t per_slice(double per_second) const {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(per_second * s / kSlices)));
  }
};

/// Per-layer metrics a daemon without a state dir does not give: no
/// checkpoints to read back for the recovery, snapshot and core layers,
/// and no WAL syncs.
const std::vector<std::string> kStatelessUnmeasured = {
    "wal.events_per_sync", "wal.sync_p50_us", "wal.sync_p99_us",
    "snapshot.encode_us", "snapshot.write_us", "snapshot.bytes",
    "snapshot.load_ms", "wal.load_ms", "recovery.replay_s",
    "core.reprobe_us", "core.oracle_build_us", "core.allocate_ms",
    "core.allocate_evals_per_s", "core.decide_width_us", "sim.evaluate_us"};

std::vector<Op> setup_ops(const Fleet& fleet) {
  std::vector<Op> ops;
  for (const FleetWlan& w : fleet.wlans) {
    ops.push_back(Op{RegisterWlan{w.id, w.deployment}});
    if (!fleet.join_in_setup) continue;
    for (int c = 0; c < w.clients; ++c) {
      ops.push_back(Op{ClientJoin{w.id, static_cast<std::uint32_t>(c)}});
    }
  }
  return ops;
}

/// serial_rt: one small WLAN, WAL off, one request in flight. A short
/// open-loop phase per slice, well below the serial rate, checks that
/// the generator keeps its schedule (gen.late_p99_us). Its epochs run on
/// 16 more small WLANs, in rounds pipelined across them: a lone 3-AP
/// epoch lasts ~2.5 ms, so its p99 would follow the host's scheduling
/// stalls rather than the program.
void serial_rt(Run& run, const Sizes& z) {
  constexpr double kOpenRate = 10000.0;
  constexpr std::uint32_t kEpochWlans = 16;
  util::Rng rng = util::Rng::derive_stream(run.opt.seed, 1);
  Fleet fleet;
  Fleet epoch_fleet;
  fleet.wlans.push_back(make_wlan(1, trace::synthetic_floor(3, 8, 7)));
  for (std::uint32_t i = 1; i <= kEpochWlans; ++i) {
    fleet.wlans.push_back(
        make_wlan(1 + i, trace::synthetic_floor(3, 8, 7 + i)));
    epoch_fleet.wlans.push_back(fleet.wlans.back());
  }
  const FleetWlan& w = fleet.wlans[0];
  auto event = [&] {
    return rng.uniform() < 0.5 ? snr_drift(w, rng) : load_hint(w, rng);
  };
  std::vector<Op> warm;
  for (int i = 0; i < 2000; ++i) warm.push_back(snr_drift(w, rng));
  std::vector<std::vector<Op>> events(kSlices);
  std::vector<std::vector<Op>> open(kSlices);
  std::vector<std::vector<std::vector<Op>>> rounds(kSlices);
  for (int k = 0; k < kSlices; ++k) {
    for (std::size_t i = 0; i < z.per_slice(12000); ++i) {
      events[k].push_back(event());
    }
    for (std::size_t i = 0; i < z.per_slice(1000); ++i) {
      open[k].push_back(event());
    }
    rounds[k] = make_rounds(epoch_fleet, static_cast<int>(z.per_slice(16)), 4,
                            rng, true);
    digest_ops(run, events[k]);
    digest_ops(run, open[k]);
    keep_events(run, events[k]);
    for (const auto& r : rounds[k]) digest_ops(run, r);
  }
  // A fresh WLAN's first epoch allocates from its boot channels; warm
  // up (and rebuild after each crash) through one per WLAN, so every
  // timed epoch starts from a settled allocation.
  std::vector<Op> rebuild = setup_ops(fleet);
  for (const FleetWlan& x : fleet.wlans) {
    warm.push_back(Op{ForceReconfigure{x.id}});
    rebuild.push_back(Op{ForceReconfigure{x.id}});
  }
  digest_ops(run, warm);

  Daemon d(run.opt, false);
  Acc acc;
  setup(run, d, fleet);
  closed_loop(run, d.client, warm, 1);
  for (int k = 0; k < kSlices; ++k) {
    const PhaseResult ev = closed_loop(run, d.client, events[k], 1);
    acc.events.add(ev.latency_us, events[k].size(), ev.wall_s);
    open_phase(run, acc, d.client, open[k], kOpenRate);
    const StatsReply s0 = stats(run, d.client);
    const RoundsResult rr = epoch_rounds(run, d.client, rounds[k]);
    acc.counts.add(s0, stats(run, d.client));
    acc.epochs.add(rr.epoch_us, rr.epochs, rr.wall_s);
    crash_slice(run, acc, d, fleet, k, rebuild);
    gap_slice(run, acc, k, static_cast<int>(z.per_slice(25)));
  }
  report_series(run, "events (closed loop, 1 in flight)", acc.events,
                "events_per_s", "event_p50_us", "event_p99_us", 1.0, "us");
  report_series(run, "open-loop events at 10000/s (from due time)", acc.open,
                nullptr, nullptr, nullptr, 1.0, "us");
  run.unmeasured = kStatelessUnmeasured;
  finish(run, acc, d);
}

/// fleet_durable: 256 WLANs from the trace load generator, shared WAL.
void fleet_durable(Run& run, const Sizes& z) {
  constexpr std::uint32_t kWlans = 256;
  Fleet fleet;
  fleet.durable = true;
  fleet.join_in_setup = false;
  for (std::uint32_t i = 0; i < kWlans; ++i) {
    fleet.wlans.push_back(make_wlan(
        1 + i, trace::synthetic_floor(3, 8, run.opt.seed * 1000 + i)));
  }
  // Each slice replays the next stretch of the trace: an open-loop
  // part, a closed-loop part, and churn left for the crash to recover.
  const std::size_t n_open = z.per_slice(4000);
  const std::size_t n_closed = z.per_slice(16000);
  const std::size_t n_churn = z.per_slice(2500);
  const std::size_t per_slice = n_open + n_closed + n_churn;
  const std::size_t total = kSlices * per_slice;
  trace::FleetLoadConfig lc;
  lc.num_wlans = kWlans;
  lc.clients_per_wlan = 8;
  lc.aps_per_wlan = 3;
  lc.seed = run.opt.seed;
  lc.duration_scale = 0.1;
  lc.horizon_s = 600.0;
  std::vector<trace::LoadEvent> sched = trace::generate_fleet_load(lc);
  while (sched.size() < total) {
    lc.horizon_s *= 1.2 * static_cast<double>(total) /
                    static_cast<double>(std::max<std::size_t>(1, sched.size()));
    sched = trace::generate_fleet_load(lc);
  }
  sched.resize(total);
  std::vector<Op> all;
  all.reserve(total);
  for (const trace::LoadEvent& e : sched) {
    switch (e.kind) {
      case trace::LoadEventKind::kJoin:
        all.push_back(Op{ClientJoin{e.wlan_id, e.client}});
        break;
      case trace::LoadEventKind::kLeave:
        all.push_back(Op{ClientLeave{e.wlan_id, e.client}});
        break;
      case trace::LoadEventKind::kSnr:
        all.push_back(Op{SnrUpdate{e.wlan_id, e.ap, e.client, e.value}});
        break;
      case trace::LoadEventKind::kLoad:
        all.push_back(Op{LoadUpdate{e.wlan_id, e.client, e.value}});
        break;
    }
  }
  digest_ops(run, all);
  auto part = [&all](std::size_t from, std::size_t n) {
    return std::vector<Op>(all.begin() + static_cast<std::ptrdiff_t>(from),
                           all.begin() + static_cast<std::ptrdiff_t>(from + n));
  };
  // Epochs walk seeded permutations of the fleet, a slice's share at a
  // time, so every WLAN is checkpointed every few slices and a crash
  // replays a bounded stretch of the log.
  util::Rng rng = util::Rng::derive_stream(run.opt.seed, 2);
  const std::size_t per_slice_epochs = z.per_slice(100);
  std::vector<Op> walk;
  while (walk.size() < kSlices * per_slice_epochs) {
    std::vector<std::uint32_t> ids(kWlans);
    for (std::uint32_t i = 0; i < kWlans; ++i) ids[i] = 1 + i;
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i)))]);
    }
    for (const std::uint32_t id : ids) walk.push_back(Op{ForceReconfigure{id}});
  }
  std::vector<std::vector<Op>> epochs(kSlices);
  for (int k = 0; k < kSlices; ++k) {
    epochs[k].assign(walk.begin() + static_cast<std::ptrdiff_t>(k * per_slice_epochs),
                     walk.begin() + static_cast<std::ptrdiff_t>((k + 1) * per_slice_epochs));
    digest_ops(run, epochs[k]);
  }

  Daemon d(run.opt, true);
  Acc acc;
  setup(run, d, fleet);
  for (int k = 0; k < kSlices; ++k) {
    const std::size_t base = static_cast<std::size_t>(k) * per_slice;
    const std::vector<Op> o = part(base, n_open);
    const std::vector<Op> c = part(base + n_open, n_closed);
    keep_events(run, c);
    open_phase(run, acc, d.client, o, 20000.0);
    const PhaseResult cl = closed_loop(run, d.client, c, 128);
    acc.events.add(cl.latency_us, c.size(), cl.wall_s);
    const StatsReply s0 = stats(run, d.client);
    const PhaseResult ep = closed_loop(run, d.client, epochs[k], 1);
    acc.counts.add(s0, stats(run, d.client));
    acc.epochs.add(ep.latency_us, epochs[k].size(), ep.wall_s);
    closed_loop(run, d.client, part(base + n_open + n_closed, n_churn), 128);
    // Gap scenarios while the daemon idles with everything acknowledged:
    // right after a restart, recovery's I/O would still be settling.
    gap_slice(run, acc, k, static_cast<int>(z.per_slice(20)));
    crash_slice(run, acc, d, fleet, k, {});
  }
  // Throughput from the window-128 loop; per-event acknowledgement
  // latency from the open loop, where a request does not queue behind
  // 127 others of the generator's own.
  report_series(run, "open-loop events at 20000/s (from due time)", acc.open,
                nullptr, "event_p50_us", "event_p99_us", 1.0, "us");
  report_series(run, "events (closed loop, window 128)", acc.events,
                "events_per_s", nullptr, nullptr, 1.0, "us");
  finish(run, acc, d);
}

/// Drift + epoch rounds for the dense and drop fleets. Per slice:
/// `gap_before` gap scenarios, the slice's rounds, one churn round of
/// drifts, `gap_after` gap scenarios, and the crash (after which a
/// stateless fleet is set up again with `rebuild`).
void round_slices(Run& run, Acc& acc, Daemon& d, Fleet& fleet,
                  const std::vector<std::vector<std::vector<Op>>>& rounds,
                  const std::vector<std::vector<Op>>& churn,
                  int gap_before, int gap_after,
                  const std::vector<Op>& rebuild) {
  for (int k = 0; k < kSlices; ++k) {
    if (gap_before > 0) gap_slice(run, acc, k, gap_before);
    const StatsReply s0 = stats(run, d.client);
    const RoundsResult rr = epoch_rounds(run, d.client, rounds[k]);
    acc.counts.add(s0, stats(run, d.client));
    acc.events.add(rr.event_us, rr.events, rr.wall_s);
    acc.epochs.add(rr.epoch_us, rr.epochs, rr.wall_s);
    closed_loop(run, d.client, churn[k], 64);
    if (gap_after > 0) gap_slice(run, acc, k, gap_after);
    crash_slice(run, acc, d, fleet, k, rebuild);
  }
  report_series(run, "drift events (pipelined with the epochs)", acc.events,
                "events_per_s", "event_p50_us", "event_p99_us", 1.0, "us");
}

void make_round_inputs(Run& run, Fleet& fleet, std::size_t rounds_per_slice,
                       util::Rng& rng,
                       std::vector<std::vector<std::vector<Op>>>& rounds,
                       std::vector<std::vector<Op>>& churn) {
  rounds.resize(kSlices);
  churn.resize(kSlices);
  for (int k = 0; k < kSlices; ++k) {
    rounds[k] =
        make_rounds(fleet, static_cast<int>(rounds_per_slice), 4, rng, true);
    churn[k] = make_rounds(fleet, 1, 4, rng, false)[0];
    for (const auto& r : rounds[k]) {
      digest_ops(run, r);
      keep_events(run, r);
    }
    digest_ops(run, churn[k]);
  }
}

/// epoch_dense: 16 large WLANs, every client joined, drift + epoch rounds.
void epoch_dense(Run& run, const Sizes& z) {
  constexpr std::uint32_t kWlans = 16;
  util::Rng rng = util::Rng::derive_stream(run.opt.seed, 3);
  Fleet fleet;
  fleet.durable = true;
  for (std::uint32_t i = 0; i < kWlans; ++i) {
    fleet.wlans.push_back(make_wlan(
        1 + i, trace::synthetic_floor(12, 48, run.opt.seed * 1000 + i)));
  }
  std::vector<std::vector<std::vector<Op>>> rounds;
  std::vector<std::vector<Op>> churn;
  make_round_inputs(run, fleet, z.per_slice(4), rng, rounds, churn);
  run.unmeasured = {"gen.late_p99_us"};  // no open loop

  Daemon d(run.opt, true);
  Acc acc;
  setup(run, d, fleet);
  round_slices(run, acc, d, fleet, rounds, churn, 0,
               static_cast<int>(z.per_slice(20)), {});
  finish(run, acc, d);
}

/// gap_sweep: the DCB gap report, plus the same drop family served by a
/// small acornd fleet. The daemon runs without a state dir: the durable
/// path is epoch_dense's to measure, and here its fsyncs would only add
/// the disk's noise to figures that are about the gap report.
void gap_sweep(Run& run, const Sizes& z) {
  constexpr std::uint32_t kWlans = 16;
  util::Rng rng = util::Rng::derive_stream(run.opt.seed, 4);
  Fleet fleet;
  const dcb::GapReportConfig family;
  for (std::uint32_t i = 0; i < kWlans; ++i) {
    util::Rng drop_rng = util::Rng::derive_stream(run.opt.seed ^ 0xd409ull, i);
    fleet.wlans.push_back(make_wlan(
        1 + i, sim::format_deployment(dcb::random_drop(family.drop, drop_rng))));
  }
  std::vector<std::vector<std::vector<Op>>> rounds;
  std::vector<std::vector<Op>> churn;
  make_round_inputs(run, fleet, z.per_slice(5), rng, rounds, churn);
  // As on serial_rt, every slice's rounds start from a settled
  // allocation: one epoch per WLAN after setup and after each rebuild.
  std::vector<Op> warm;
  for (const FleetWlan& w : fleet.wlans) {
    warm.push_back(Op{ForceReconfigure{w.id}});
  }
  std::vector<Op> rebuild = setup_ops(fleet);
  rebuild.insert(rebuild.end(), warm.begin(), warm.end());
  digest_ops(run, rebuild);
  run.unmeasured = kStatelessUnmeasured;
  run.unmeasured.push_back("gen.late_p99_us");  // no open loop

  Daemon d(run.opt, false);
  Acc acc;
  setup(run, d, fleet);
  closed_loop(run, d.client, warm, warm.size());
  round_slices(run, acc, d, fleet, rounds, churn,
               static_cast<int>(z.per_slice(60)), 0, rebuild);
  finish(run, acc, d);
  // The gap report runs in this process: its peak is the harness's.
  run.e2e["peak_rss_mb"] =
      static_cast<double>(perfbench::self_peak_rss_kb()) / 1024.0;
}

// ---- Output -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"events_per_s", "1/s"},
    {"event_p50_us", "us"},    {"event_p99_us", "us"},
    {"epochs_per_s", "1/s"},   {"epoch_p50_ms", "ms"},
    {"epoch_p99_ms", "ms"},    {"recovery_s", "s"},
    {"goodput_mbps", "Mbps"},  {"scenarios_per_s", "1/s"},
    {"gap_mean_pct", "%"},     {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"client.send_us", "us"},
    {"client.wait_us", "us"},
    {"gen.late_p99_us", "us"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.bytes_per_event", "B"},
    {"executor.handoff_us", "us"},
    {"daemon.request_p50_us", "us"},
    {"daemon.request_p99_us", "us"},
    {"daemon.frames_rx", "count"},
    {"daemon.protocol_errors", "count"},
    {"wal.syncs", "count"},
    {"wal.events_per_sync", "count"},
    {"wal.sync_p50_us", "us"},
    {"wal.sync_p99_us", "us"},
    {"wal.encode_ns", "ns"},
    {"wal.bytes_per_event", "B"},
    {"device.fdatasync_us", "us"},
    {"snapshot.encode_us", "us"},
    {"snapshot.write_us", "us"},
    {"snapshot.bytes", "B"},
    {"snapshot.load_ms", "ms"},
    {"wal.load_ms", "ms"},
    {"recovery.replay_s", "s"},
    {"core.reprobe_us", "us"},
    {"core.oracle_build_us", "us"},
    {"core.allocate_ms", "ms"},
    {"core.allocate_evals_per_s", "1/s"},
    {"core.decide_width_us", "us"},
    {"sim.evaluate_us", "us"},
    {"alloc.evals_per_epoch", "count"},
    {"oracle.cell_hit_ratio", "ratio"},
    {"oracle.share_hit_ratio", "ratio"},
    {"epoch.assoc_changes", "count"},
    {"epoch.channel_switches", "count"},
    {"epoch.width_switches", "count"},
    {"phy.register_us", "us"},
    {"baselines.exact_evals_per_s", "1/s"},
    {"gap.optimal_evals", "count"},
    {"gap.acorn_evals", "count"},
    {"dcb.drop_us", "us"},
    {"dcb.policy_eval_us", "us"},
    {"trace.events_per_s", "1/s"},
    {"failed_frac", "ratio"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "1e308";
  return fmt("%.17g", v);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void span_layers(Run& run) {
  double send = 0.0;
  double wait = 0.0;
  std::size_t n = 0;
  const std::vector<std::int64_t> self = perfbench::self_times_ns(run.spans);
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const perfbench::Span& s = run.spans[i];
    if (s.name == "client.send") {
      send += 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    } else if (s.name == "request") {
      wait += 1e-3 * static_cast<double>(self[i]);
      ++n;
    }
  }
  if (n > 0) {
    run.layer["client.send_us"] = send / static_cast<double>(n);
    run.layer["client.wait_us"] = wait / static_cast<double>(n);
  }
}

void write_spans(const Run& run, const std::string& path) {
  std::ofstream out(path);
  for (const perfbench::Span& s : run.spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"request\":" << s.request
        << "}\n";
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: acorn_perf --workload serial_rt|fleet_durable|"
               "epoch_dense|gap_sweep --seed N --seconds S --trace 0|1 "
               "--acornd PATH [--record FILE] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) return usage();  // flags come in name/value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--acornd") {
      opt.acornd = v;
    } else if (k == "--record") {
      opt.record = v;
    } else if (k == "--commit") {
      opt.commit = v;
    } else {
      return usage();
    }
  }
  const std::map<std::string, void (*)(Run&, const Sizes&)> workloads = {
      {"serial_rt", serial_rt},
      {"fleet_durable", fleet_durable},
      {"epoch_dense", epoch_dense},
      {"gap_sweep", gap_sweep},
  };
  const auto wl = workloads.find(opt.workload);
  if (wl == workloads.end() || opt.seconds <= 0 || opt.acornd.empty()) {
    return usage();
  }

  Run run;
  run.opt = opt;
  run.config_digest.str(opt.workload);
  run.config_digest.u64(opt.seed);
  run.config_digest.u64(static_cast<std::uint64_t>(opt.seconds));
  const double fsync_us = perfbench::probe_fdatasync_us(".", 32);
  run.layer["device.fdatasync_us"] = fsync_us;
  run.note(fmt("stamp: workload %s seed %llu seconds %d trace %d commit %s "
               "hw_threads %u cpu \"%s\" device.fdatasync_us %.1f",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, opt.commit.c_str(),
               std::thread::hardware_concurrency(), cpu_model().c_str(),
               fsync_us));
  try {
    wl->second(run, Sizes{static_cast<double>(opt.seconds)});
  } catch (const std::exception& e) {
    run.check(false, std::string("aborted: ") + e.what());
  }
  if (opt.trace) {
    span_layers(run);
    if (run.e2e.count("events_per_s") != 0) {
      run.layer["trace.events_per_s"] = run.e2e.at("events_per_s");
    }
  }
  run.layer["failed_frac"] = run.tally.failed_frac();
  run.check(run.tally.failed() == 0,
            fmt("%llu of %llu operations failed",
                static_cast<unsigned long long>(run.tally.failed()),
                static_cast<unsigned long long>(run.tally.attempted)));

  // Every metric must be measured, except the per-layer ones the
  // workload declared it does not take: those print as 0 and are named.
  const std::vector<MetricDef>& defs = opt.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values = opt.trace ? run.layer : run.e2e;
  std::string skipped;
  for (const MetricDef& m : defs) {
    const bool declared =
        opt.trace && std::find(run.unmeasured.begin(), run.unmeasured.end(),
                               m.name) != run.unmeasured.end();
    if (values.count(m.name) == 0) {
      if (declared) {
        skipped += std::string(" ") + m.name;
      } else {
        run.check(false, fmt("metric %s not measured", m.name));
      }
    } else if (!opt.trace) {
      run.check(values.at(m.name) > 0.0 && std::isfinite(values.at(m.name)),
                fmt("metric %s is %g", m.name, values.at(m.name)));
    }
  }
  if (!skipped.empty()) {
    run.note("not measured on this workload (printed as 0):" + skipped);
  }
  run.note(fmt("digest: config %016llx result %016llx",
               static_cast<unsigned long long>(run.config_digest.h),
               static_cast<unsigned long long>(run.result_digest.h)));
  for (const std::string& e : run.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = run.errors.empty();

  std::string metrics = "{";
  for (const MetricDef& m : defs) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (metrics.size() > 1) metrics += ", ";
    metrics += fmt("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", m.name,
                   json_number(v).c_str(), m.unit);
  }
  metrics += "}";
  const std::string result =
      fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
          "\"metrics\": ",
          correct ? "true" : "false",
          static_cast<unsigned long long>(std::max<std::uint64_t>(
              1, run.tally.attempted)),
          static_cast<unsigned long long>(run.tally.failed())) +
      metrics + "}";

  if (!opt.record.empty()) {
    std::ofstream rec(opt.record);
    rec << "{\"notes\": [";
    for (std::size_t i = 0; i < run.notes.size(); ++i) {
      rec << (i ? ", " : "") << '"' << json_escape(run.notes[i]) << '"';
    }
    rec << "], \"errors\": [";
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      rec << (i ? ", " : "") << '"' << json_escape(run.errors[i]) << '"';
    }
    rec << "], \"result\": " << result << "}\n";
    if (opt.trace) write_spans(run, opt.record + ".spans.jsonl");
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
