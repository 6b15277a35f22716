// Per-layer timings for the traced run. Each function times calls into
// one layer's public interface in this process, on inputs the workload
// itself produced (its request frames, its WLANs' final states), and
// adds its figures to `out` by metric name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/snapshot.hpp"
#include "service/wire.hpp"

namespace perfbench {

using LayerMetrics = std::map<std::string, double>;

/// service.wire: encode_frame / decode_payload per request frame.
void time_wire(const std::vector<acorn::service::Message>& requests,
               LayerMetrics& out);

/// service.eventlog: the WAL's per-event encoding (payload + segment
/// record), as the shard and the commit thread do it.
void time_wal_encode(const std::vector<acorn::service::Message>& requests,
                     LayerMetrics& out);

/// util.worker_pool: notify() -> run_pass() handoff of a PooledExecutor
/// with the daemon's worker count.
void time_executor_handoff(int workers, int iters, LayerMetrics& out);

/// service.snapshot: encode_snapshot, and write_snapshot into `dir`.
void time_snapshot(const std::vector<acorn::service::WlanSnapshot>& states,
                   const std::string& dir, LayerMetrics& out);

/// core / sim: one epoch's stages re-run on each state — re-probe of
/// every associated client (Algorithm 1), CachedOracle build,
/// Algorithm 2, width decisions for bonded APs, and a full evaluation.
void time_core(const std::vector<acorn::service::WlanSnapshot>& states,
               LayerMetrics& out);

/// baselines / dcb: drop generation, the exact optimum, and the width
/// policy evaluations on `scenarios` drops of the dense family.
void time_dcb(std::uint64_t seed, int scenarios, LayerMetrics& out);

}  // namespace perfbench
