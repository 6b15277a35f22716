#include "layers.hpp"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "baselines/kai.hpp"
#include "baselines/simple.hpp"
#include "child.hpp"
#include "core/controller.hpp"
#include "core/oracle_cache.hpp"
#include "core/width_switch.hpp"
#include "dcb/gap_report.hpp"
#include "dcb/policy.hpp"
#include "dcb/random_drop.hpp"
#include "measure.hpp"
#include "service/eventlog.hpp"
#include "sim/deployment_file.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {

using namespace acorn;
using namespace acorn::service;

namespace {

// Keeps the optimizer from discarding a timed result.
volatile double g_sink = 0.0;

/// Store the median under `name` only when there were samples, so a
/// stage that never ran shows as not measured rather than as 0.
void put_median(LayerMetrics& out, const char* name,
                const std::vector<double>& samples) {
  if (!samples.empty()) out[name] = median(samples);
}

}  // namespace

void time_wire(const std::vector<Message>& requests, LayerMetrics& out) {
  if (requests.empty()) return;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(requests.size());
  double bytes = 0.0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    frames.push_back(
        encode_frame(static_cast<std::uint32_t>(i + 1), requests[i]));
  }
  const double t1 = now_s();
  std::uint64_t seq_sum = 0;
  for (const auto& f : frames) {
    bytes += static_cast<double>(f.size());
    // decode_payload takes the bytes after the 4-byte length prefix.
    seq_sum += decode_payload(std::span<const std::uint8_t>(f).subspan(4)).seq;
  }
  const double t2 = now_s();
  g_sink = g_sink + static_cast<double>(seq_sum);
  const double n = static_cast<double>(requests.size());
  out["wire.encode_ns"] = 1e9 * (t1 - t0) / n;
  out["wire.decode_ns"] = 1e9 * (t2 - t1) / n;
  out["wire.bytes_per_event"] = bytes / n;
}

void time_wal_encode(const std::vector<Message>& requests, LayerMetrics& out) {
  if (requests.empty()) return;
  double bytes = 0.0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<std::uint8_t> payload = encode_payload(0, requests[i]);
    const std::vector<std::uint8_t> record =
        encode_segment_record(1, i + 1, payload);
    bytes += static_cast<double>(record.size());
  }
  const double t1 = now_s();
  const double n = static_cast<double>(requests.size());
  out["wal.encode_ns"] = 1e9 * (t1 - t0) / n;
  out["wal.bytes_per_event"] = bytes / n;
}

namespace {

/// Records when the executor hands it the CPU after a notify().
class ProbeTask final : public util::PooledExecutor::Task {
 public:
  void arm() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ran_ = false;
    notified_at_ = now_s();
  }
  double wait_ran() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return ran_; });
    return ran_at_ - notified_at_;
  }

 private:
  util::PooledExecutor::Clock::time_point run_pass() override {
    const double t = now_s();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ran_at_ = t;
      ran_ = true;
    }
    cv_.notify_one();
    return util::PooledExecutor::Clock::time_point::max();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool ran_ = false;
  double notified_at_ = 0.0;
  double ran_at_ = 0.0;
};

}  // namespace

void time_executor_handoff(int workers, int iters, LayerMetrics& out) {
  util::PooledExecutor executor(workers);
  ProbeTask task;
  task.arm();
  executor.attach(task);  // attach schedules a first pass
  task.wait_ran();
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    task.arm();
    executor.notify(task);
    us.push_back(1e6 * task.wait_ran());
  }
  executor.detach(task);
  out["executor.handoff_us"] = median(us);
}

void time_snapshot(const std::vector<WlanSnapshot>& states,
                   const std::string& dir, LayerMetrics& out) {
  if (states.empty()) return;
  std::filesystem::create_directories(dir);
  std::vector<double> enc_us;
  std::vector<double> write_us;
  double bytes = 0.0;
  for (const WlanSnapshot& s : states) {
    const double t0 = now_s();
    const std::vector<std::uint8_t> blob = encode_snapshot(s);
    const double t1 = now_s();
    if (!write_snapshot(dir, s)) {
      throw std::runtime_error("write_snapshot failed in " + dir);
    }
    const double t2 = now_s();
    enc_us.push_back(1e6 * (t1 - t0));
    write_us.push_back(1e6 * (t2 - t1));
    bytes += static_cast<double>(blob.size());
  }
  out["snapshot.encode_us"] = median(enc_us);
  out["snapshot.write_us"] = median(write_us);
  out["snapshot.bytes"] = bytes / static_cast<double>(states.size());
}

void time_core(const std::vector<WlanSnapshot>& states, LayerMetrics& out) {
  std::vector<double> reprobe_us;
  std::vector<double> oracle_us;
  std::vector<double> alloc_ms;
  std::vector<double> width_us;
  std::vector<double> eval_us;
  double evals = 0.0;
  double alloc_s = 0.0;
  for (const WlanSnapshot& s : states) {
    const sim::DeploymentSpec spec = sim::parse_deployment(s.deployment);
    sim::Wlan wlan = spec.build();
    for (const LossOverride& o : s.loss_overrides) {
      wlan.budget().set_ap_client_loss_db(static_cast<int>(o.ap),
                                          static_cast<int>(o.client),
                                          o.loss_db);
    }
    core::AcornConfig cfg;
    cfg.plan = net::ChannelPlan(spec.num_channels);
    const core::AcornController controller(cfg);
    net::Association assoc = s.association;

    // Re-probe every associated client, as an epoch does for the
    // clients whose links changed.
    int probes = 0;
    const double t0 = now_s();
    for (std::size_t c = 0; c < assoc.size(); ++c) {
      const int before = assoc[c];
      if (before == net::kUnassociated) continue;
      assoc[c] = net::kUnassociated;
      if (!controller.associate_client(wlan, assoc, s.operating,
                                       static_cast<int>(c))) {
        assoc[c] = before;
      }
      ++probes;
    }
    const double t1 = now_s();
    if (probes > 0) reprobe_us.push_back(1e6 * (t1 - t0) / probes);

    std::vector<double> weights;
    if (!s.loads.empty()) {
      weights.assign(assoc.size(), 1.0);
      for (const LoadHint& l : s.loads) weights[l.client] = l.load;
    }
    const double t2 = now_s();
    const core::CachedOracle oracle(wlan, assoc, mac::TrafficType::kUdp,
                                    weights);
    const double t3 = now_s();
    const core::AllocationResult result =
        controller.allocation_module().allocate(wlan, assoc, s.allocated,
                                                oracle);
    const double t4 = now_s();
    int bonded = 0;
    for (std::size_t ap = 0; ap < result.assignment.size(); ++ap) {
      if (!result.assignment[ap].is_bonded()) continue;
      const core::WidthDecision d = core::decide_width(
          wlan, static_cast<int>(ap), wlan.clients_of(assoc, static_cast<int>(ap)),
          oracle.graph(), result.assignment);
      g_sink = g_sink + d.cell_bps_40;
      ++bonded;
    }
    const double t5 = now_s();
    g_sink = g_sink + oracle.snapshot().evaluate(s.operating).total_goodput_bps;
    const double t6 = now_s();

    oracle_us.push_back(1e6 * (t3 - t2));
    alloc_ms.push_back(1e3 * (t4 - t3));
    alloc_s += t4 - t3;
    evals += static_cast<double>(result.evaluations);
    if (bonded > 0) width_us.push_back(1e6 * (t5 - t4) / bonded);
    eval_us.push_back(1e6 * (t6 - t5));
  }
  put_median(out, "core.reprobe_us", reprobe_us);
  put_median(out, "core.oracle_build_us", oracle_us);
  put_median(out, "core.allocate_ms", alloc_ms);
  if (alloc_s > 0.0) out["core.allocate_evals_per_s"] = evals / alloc_s;
  put_median(out, "core.decide_width_us", width_us);
  put_median(out, "sim.evaluate_us", eval_us);
}

void time_dcb(std::uint64_t seed, int scenarios, LayerMetrics& out) {
  const dcb::GapReportConfig config;  // the default dense drop family
  const net::ChannelPlan plan(config.drop.num_channels);
  const std::vector<dcb::WidthPolicy> policies =
      dcb::standard_policies(config.wide_probability);
  baselines::KaiConfig kai;
  kai.max_exact_evaluations = config.max_exact_evaluations;
  std::vector<double> drop_us;
  std::vector<double> policy_us;
  double exact_evals = 0.0;
  double exact_s = 0.0;
  for (int i = 0; i < scenarios; ++i) {
    util::Rng rng = util::Rng::derive_stream(seed, static_cast<std::uint64_t>(i));
    const double t0 = now_s();
    const sim::DeploymentSpec spec = dcb::random_drop(config.drop, rng);
    const sim::Wlan wlan = spec.build(config.wlan);
    const double t1 = now_s();
    const net::Association assoc = baselines::rss_associate_all(wlan);
    const core::CachedOracle oracle(wlan, assoc, config.traffic);
    const double t2 = now_s();
    const baselines::KaiResult best =
        baselines::kai_optimal_allocation(oracle, plan, rng, kai);
    const double t3 = now_s();
    for (const dcb::WidthPolicy& p : policies) {
      g_sink = g_sink + dcb::evaluate_policy(oracle.snapshot(), best.assignment,
                                             p, config.traffic)
                            .total_goodput_bps;
    }
    const double t4 = now_s();
    drop_us.push_back(1e6 * (t1 - t0));
    exact_evals += static_cast<double>(best.evaluations);
    exact_s += t3 - t2;
    policy_us.push_back(1e6 * (t4 - t3) /
                        static_cast<double>(policies.size()));
  }
  put_median(out, "dcb.drop_us", drop_us);
  if (exact_s > 0.0) out["baselines.exact_evals_per_s"] = exact_evals / exact_s;
  put_median(out, "dcb.policy_eval_us", policy_us);
}

}  // namespace perfbench
