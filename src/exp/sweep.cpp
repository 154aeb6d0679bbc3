#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "exp/tick_pool.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "util/json.hpp"

namespace eadt::exp {

namespace {

/// splitmix64 finalizer: avalanches the base seed so that consecutive user
/// seeds (1, 2, 3...) land far apart before they meet the coordinate hash.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* task_algorithm_name(const SweepTask& task) noexcept {
  return task.kind == SweepTask::Kind::kSla ? "SLAEE" : to_string(task.algorithm);
}

}  // namespace

std::uint64_t derive_task_seed(std::string_view algorithm, std::string_view testbed,
                               int concurrency, std::uint64_t base_seed) noexcept {
  // Coordinates are joined with an unambiguous separator so ("a","bc") and
  // ("ab","c") hash differently, then the avalanched base seed is folded in.
  std::string key;
  key.reserve(algorithm.size() + testbed.size() + 16);
  key.append(algorithm).push_back('\x1f');
  key.append(testbed).push_back('\x1f');
  key.append(std::to_string(concurrency));
  std::uint64_t h = fnv1a64(key) ^ mix64(base_seed);
  h = mix64(h);
  return h != 0 ? h : 0x9e3779b97f4a7c15ULL;  // keep the seed usable for Rng
}

int resolve_jobs(int requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EADT_JOBS"); env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void SweepRunner::parallel_indexed(int jobs, std::size_t count,
                                   const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(std::max(jobs, 1)), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // One transient pool per call: sweep cells run for seconds, so the spawn
  // cost is noise here — the pool exists so the scheduler's tick pipeline
  // (which dispatches thousands of times per run) shares this exact fan-out
  // and its tests.
  TickPool pool(static_cast<int>(workers));
  pool.run(count, [](void* ctx, std::size_t i) {
    (*static_cast<const std::function<void(std::size_t)>*>(ctx))(i);
  }, const_cast<std::function<void(std::size_t)>*>(&fn));
}

namespace {

/// A task's session inputs as the session sees them: when `seed` != 0 the
/// derived seed re-keys every stochastic element, so two grid points never
/// share a jitter or fault stream.
struct TaskInputs {
  std::uint64_t derived_seed = 0;
  testbeds::Testbed testbed;
  proto::FaultPlan faults;
};

TaskInputs effective_inputs(const SweepTask& task) {
  TaskInputs in{derive_task_seed(task_algorithm_name(task), task.testbed.env.name,
                                 task.concurrency, task.seed),
                task.testbed, task.faults};
  if (task.seed != 0) {
    in.testbed.env.jitter_seed = in.derived_seed;
    if (in.faults.active()) in.faults.seed = mix64(in.derived_seed);
  }
  return in;
}

/// Whether a task's result is a pure function of its session inputs, so an
/// identical task may copy it: no runtime controller (SLAEE, HTEE), and no
/// observability or checkpoint sink that expects a session of its own.
bool shareable(const SweepTask& task) {
  return task.kind == SweepTask::Kind::kRun && task.algorithm != Algorithm::kHtee &&
         task.obs == nullptr && task.config.obs == nullptr && !task.checkpoints;
}

/// Everything a controller-free session reads — environment, dataset, plan,
/// config and fault plan — as 64-bit words. Doubles go in by bit pattern, so
/// +0.0 and -0.0 (or two NaN payloads) never compare equal; strings and
/// vectors are length-prefixed, so equal keys mean equal inputs.
class SessionKey {
 public:
  SessionKey(const proto::Environment& env, const proto::Dataset& dataset,
             const proto::TransferPlan& plan, const proto::SessionConfig& config,
             const proto::FaultPlan& faults) {
    put(env.name);
    for (const proto::Endpoint* side : {&env.source, &env.destination}) {
      put(side->site, side->servers.size());
      for (const host::ServerSpec& s : side->servers) {
        put(s.name, s.cores, s.cpu_tdp, s.nic_speed, s.mem_total, s.disk.kind,
            s.disk.max_bandwidth, s.disk.ramp, s.disk.thrash_alpha, s.per_core_goodput,
            s.per_stream_disk, s.proc_base_util, s.util_per_gbps, s.util_contention,
            s.cs_alpha, s.cs_util_per_thread, s.mem_base_util, s.mem_util_per_gbps);
      }
      const power::PowerCoefficients& p = side->power;
      put(p.cpu_scale, p.mem, p.disk, p.nic, p.active_base);
    }
    const net::PathSpec& path = env.path;
    put(path.bandwidth, path.rtt, path.tcp_buffer, path.mtu, path.background_traffic,
        env.congestion.loss_beta, env.congestion.stream_knee, env.congestion.stream_beta,
        env.route.size());
    for (const net::NetworkDevice& d : env.route.devices()) put(d.kind, d.name);
    put(env.warm_fraction, env.per_file_cost, env.rate_jitter_sd, env.jitter_seed);

    put(dataset.files.size());
    for (const proto::FileInfo& f : dataset.files) put(f.size);

    put(plan.chunks.size());
    for (const proto::Chunk& c : plan.chunks) {
      put(c.cls, c.total, c.file_ids.size());
      for (const std::uint32_t id : c.file_ids) put(id);
    }
    put(plan.params.size());
    for (const proto::ChunkParams& p : plan.params) {
      put(p.pipelining, p.parallelism, p.channels);
    }
    put(plan.placement, plan.steal, plan.sequential_chunks, plan.service_overhead_per_file,
        plan.checksum_rate);

    put(config.tick, config.sample_interval, config.max_sim_time,
        config.checkpoint_interval, config.path_id);

    put(faults.channel_drops.size());
    for (const proto::ChannelDropEvent& e : faults.channel_drops) put(e.time, e.channel);
    put(faults.outages.size());
    for (const proto::ServerOutageEvent& e : faults.outages) {
      put(e.source_side, e.server, e.start, e.duration);
    }
    put(faults.brownouts.size());
    for (const proto::PathBrownoutEvent& e : faults.brownouts) {
      put(e.start, e.duration, e.capacity_factor, e.path);
    }
    const proto::RetryPolicy& r = faults.retry;
    put(faults.stochastic.channel_drop_rate, faults.stochastic.checksum_failure_prob,
        r.restart_markers, r.backoff_initial, r.backoff_multiplier, r.backoff_max,
        r.backoff_jitter, r.channel_retry_budget, faults.seed);
  }

  [[nodiscard]] bool operator==(const SessionKey&) const = default;

  /// Finds candidates only; sharing still needs operator==.
  [[nodiscard]] std::uint64_t digest() const noexcept {
    std::uint64_t h = words_.size();
    for (const std::uint64_t w : words_) h = mix64(h ^ w);
    return h;
  }

 private:
  template <typename... Fields>
  void put(const Fields&... fields) {
    (put_one(fields), ...);
  }
  void put_one(double v) { words_.push_back(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void put_one(T v) {
    words_.push_back(static_cast<std::uint64_t>(v));
  }
  void put_one(std::string_view text) {
    put_one(text.size());
    for (std::size_t at = 0; at < text.size(); at += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, text.data() + at, std::min<std::size_t>(8, text.size() - at));
      words_.push_back(w);
    }
  }

  std::vector<std::uint64_t> words_;
};

// The key must name every field the session reads. Never called: on every
// toolchain, a structured binding must bind exactly as many names as its
// struct has fields, so a field added to an input struct stops this file
// compiling. Extend the key, then the binding. net::Route is a class;
// the key reads its one member whole through devices(). SessionConfig::obs is
// not keyed: shareable() admits no task with sinks.
[[maybe_unused]] void session_key_binds_every_field(
    const proto::Environment& env, const proto::Endpoint& side,
    const host::ServerSpec& server, const power::PowerCoefficients& power,
    const net::PathSpec& path, const net::CongestionSpec& congestion,
    const net::NetworkDevice& device, const proto::Dataset& dataset,
    const proto::FileInfo& file, const proto::TransferPlan& plan,
    const proto::Chunk& chunk, const proto::ChunkParams& params,
    const proto::SessionConfig& config, const proto::FaultPlan& faults,
    const proto::ChannelDropEvent& drop, const proto::ServerOutageEvent& outage,
    const proto::PathBrownoutEvent& brownout, const proto::StochasticFaults& stochastic,
    const proto::RetryPolicy& retry) {
  [[maybe_unused]] const auto& [env_name, source, destination, env_path, env_congestion,
                                route, warm_fraction, per_file_cost, rate_jitter_sd,
                                jitter_seed] = env;
  [[maybe_unused]] const auto& [site, servers, coefficients] = side;
  [[maybe_unused]] const auto& [server_name, cores, cpu_tdp, nic_speed, mem_total, disk,
                                per_core_goodput, per_stream_disk, proc_base_util,
                                util_per_gbps, util_contention, cs_alpha,
                                cs_util_per_thread, mem_base_util, mem_util_per_gbps] =
      server;
  [[maybe_unused]] const auto& [disk_kind, max_bandwidth, ramp, thrash_alpha] = server.disk;
  [[maybe_unused]] const auto& [cpu_scale, mem_w, disk_w, nic_w, active_base] = power;
  [[maybe_unused]] const auto& [bandwidth, rtt, tcp_buffer, mtu, background_traffic] = path;
  [[maybe_unused]] const auto& [loss_beta, stream_knee, stream_beta] = congestion;
  [[maybe_unused]] const auto& [device_kind, device_name] = device;
  [[maybe_unused]] const auto& [files] = dataset;
  [[maybe_unused]] const auto& [size] = file;
  [[maybe_unused]] const auto& [chunks, chunk_params, placement, steal, sequential_chunks,
                                service_overhead_per_file, checksum_rate] = plan;
  [[maybe_unused]] const auto& [cls, file_ids, total] = chunk;
  [[maybe_unused]] const auto& [pipelining, parallelism, channels] = params;
  [[maybe_unused]] const auto& [tick, sample_interval, max_sim_time, checkpoint_interval,
                                path_id, obs] = config;
  [[maybe_unused]] const auto& [channel_drops, outages, brownouts, stochastic_faults,
                                retry_policy, seed] = faults;
  [[maybe_unused]] const auto& [drop_time, drop_channel] = drop;
  [[maybe_unused]] const auto& [source_side, outage_server, outage_start,
                                outage_duration] = outage;
  [[maybe_unused]] const auto& [brownout_start, brownout_duration, capacity_factor,
                                target_path] = brownout;
  [[maybe_unused]] const auto& [channel_drop_rate, checksum_failure_prob] = stochastic;
  [[maybe_unused]] const auto& [restart_markers, backoff_initial, backoff_multiplier,
                                backoff_max, backoff_jitter, channel_retry_budget] = retry;
}

// The same guard by size, kept for LP64 libstdc++ where the sizes are known.
#if defined(__x86_64__) && defined(__GLIBCXX__) && !defined(_GLIBCXX_DEBUG)
static_assert(sizeof(proto::Environment) == 344 && sizeof(host::ServerSpec) == 168 &&
                  sizeof(net::NetworkDevice) == 40 && sizeof(proto::FileInfo) == 8 &&
                  sizeof(proto::TransferPlan) == 80 && sizeof(proto::Chunk) == 40 &&
                  sizeof(proto::ChunkParams) == 12 && sizeof(proto::SessionConfig) == 48 &&
                  sizeof(proto::FaultPlan) == 144 && sizeof(proto::ChannelDropEvent) == 16 &&
                  sizeof(proto::ServerOutageEvent) == 32 &&
                  sizeof(proto::PathBrownoutEvent) == 32,
              "a session input gained a field: add it to SessionKey");
#endif

using GroupLeaders = std::vector<std::pair<SessionKey, std::size_t>>;

/// Runs task `index` with its own session, unless its session inputs equal
/// those of an earlier task of its group (`leaders`, grown here): then the
/// result only names that task in `shared_from`, and run() copies the
/// session's outcome. A group of one passes no `leaders` and skips the key.
SweepTaskResult execute_task(const SweepTask& task, std::size_t index,
                             GroupLeaders* leaders) {
  TaskInputs in = effective_inputs(task);
  SweepTaskResult out;
  out.index = index;
  out.kind = task.kind;
  out.testbed = task.testbed.env.name;
  out.derived_seed = in.derived_seed;

  proto::SessionConfig config = task.config;
  if (task.obs != nullptr) {
    // The slot label is a pure function of the task's coordinates, so merged
    // exports name every process identically regardless of worker count.
    const std::size_t slot =
        task.obs_slot == SweepTask::kAutoSlot ? index : task.obs_slot;
    char suffix[48];
    if (task.kind == SweepTask::Kind::kSla) {
      std::snprintf(suffix, sizeof suffix, " target=%g%%", task.target_percent);
    } else {
      std::snprintf(suffix, sizeof suffix, " cc=%d", task.concurrency);
    }
    std::string label = "#";
    label += std::to_string(slot);
    label += ' ';
    label += task_algorithm_name(task);
    label += ' ';
    label += task.testbed.env.name;
    label += suffix;
    config.obs = task.obs->slot(slot, std::move(label));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const proto::Environment& env = in.testbed.env;
  if (task.kind == SweepTask::Kind::kRun) {
    PlannedRun planned =
        plan_algorithm(task.algorithm, env, task.dataset, task.concurrency, config);
    if (leaders != nullptr) {
      SessionKey key(env, task.dataset, planned.plan, config, in.faults);
      const auto leader = std::find_if(leaders->begin(), leaders->end(),
                                       [&](const auto& l) { return l.first == key; });
      if (leader != leaders->end()) {
        out.run.algorithm = task.algorithm;
        out.run.concurrency = task.concurrency;
        out.run.chosen_concurrency = planned.chosen_concurrency;
        out.shared_from = leader->second;
        return out;
      }
      leaders->emplace_back(std::move(key), index);
    }
    out.run = execute_algorithm(task.algorithm, env, task.dataset, task.concurrency,
                                std::move(planned), config, std::move(in.faults),
                                task.checkpoints);
  } else {
    out.sla = run_slaee(in.testbed, task.dataset, task.target_percent, task.max_throughput,
                        task.concurrency, config, std::move(in.faults),
                        task.checkpoints);
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

}  // namespace

std::vector<SweepTaskResult> SweepRunner::run(const std::vector<SweepTask>& tasks) const {
  const std::size_t n = tasks.size();

  // Phase 1: plan every shareable task and digest its session inputs. Only
  // the digest is kept; a plan is rebuilt when its task runs.
  std::vector<std::uint64_t> digests(n, 0);
  parallel_indexed(jobs_, n, [&](std::size_t i) {
    const SweepTask& task = tasks[i];
    if (!shareable(task)) return;
    const TaskInputs in = effective_inputs(task);
    const PlannedRun planned = plan_algorithm(task.algorithm, in.testbed.env, task.dataset,
                                              task.concurrency, task.config);
    digests[i] =
        SessionKey(in.testbed.env, task.dataset, planned.plan, task.config, in.faults)
            .digest();
  });

  // Phase 2: group shareable tasks by digest, in index order, so each
  // group's first member is the lowest index of every input class in it.
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  for (std::size_t i = 0; i < n; ++i) {
    if (shareable(tasks[i])) {
      const auto [it, fresh] = group_of.try_emplace(digests[i], groups.size());
      if (!fresh) {
        groups[it->second].push_back(i);
        continue;
      }
    }
    groups.push_back({i});
  }

  // Phase 3: one worker per group runs a session for each distinct input
  // class (its lowest index leads) and marks the rest as copies.
  std::vector<SweepTaskResult> results(n);
  parallel_indexed(jobs_, groups.size(), [&](std::size_t g) {
    GroupLeaders leaders;
    for (const std::size_t i : groups[g]) {
      results[i] = execute_task(tasks[i], i, groups[g].size() > 1 ? &leaders : nullptr);
    }
  });

  // Phase 4: copies take their leader's session result and wall time.
  for (SweepTaskResult& r : results) {
    if (!r.shared_from) continue;
    const SweepTaskResult& leader = results[*r.shared_from];
    r.run.result = leader.run.result;
    r.wall_ms = leader.wall_ms;
  }
  return results;
}

// --- payload / JSON serialization ------------------------------------------

namespace {

/// C99 hex-float: bit-exact and locale-independent, the same trick the
/// checkpoint journal uses.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void payload_result_fields(std::ostream& os, const proto::RunResult& r) {
  os << " completed=" << (r.completed ? 1 : 0) << " duration=" << hexf(r.duration)
     << " bytes=" << r.bytes << " goodput=" << r.goodput_bytes()
     << " end_j=" << hexf(r.end_system_energy) << " net_j=" << hexf(r.network_energy)
     << " final_cc=" << r.final_concurrency << " samples=" << r.samples.size()
     << " retries=" << r.faults.retries << " drops=" << r.faults.channel_drops
     << " wasted=" << r.faults.wasted_bytes;
  const auto& c = r.sim_counters;
  os << " sched=" << c.scheduled << " fired=" << c.fired << " cancelled=" << c.cancelled
     << " ticks=" << c.ticks << " peakq=" << c.peak_queue;
}

}  // namespace

std::string sweep_payload(const std::vector<SweepTaskResult>& results) {
  std::ostringstream os;
  for (const auto& t : results) {
    os << t.index << ' '
       << (t.kind == SweepTask::Kind::kRun ? to_string(t.run.algorithm) : "SLAEE")
       << " tb=" << t.testbed << " seed=" << t.derived_seed;
    if (t.kind == SweepTask::Kind::kRun) {
      os << " cc=" << t.run.concurrency << " chosen=" << t.run.chosen_concurrency;
    } else {
      os << " target%=" << hexf(t.sla.target_percent)
         << " target_bps=" << hexf(t.sla.target_throughput)
         << " final_cc=" << t.sla.final_concurrency
         << " rearranged=" << (t.sla.rearranged ? 1 : 0);
    }
    payload_result_fields(os, t.result());
    os << '\n';
  }
  return os.str();
}

std::string bench_commit_stamp() {
  if (const char* env = std::getenv("EADT_COMMIT"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef EADT_GIT_COMMIT
  return EADT_GIT_COMMIT;
#else
  return "unknown";
#endif
}

namespace {

/// Round-trip-exact decimal (17 significant digits): equal doubles always
/// print identically, so the JSON payload inherits the engine's determinism.
std::string jnum(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void json_task(std::ostream& os, const SweepTaskResult& t) {
  const auto& r = t.result();
  os << "    {\"index\":" << t.index << ",\"kind\":\""
     << (t.kind == SweepTask::Kind::kRun ? "run" : "sla") << "\",\"algorithm\":\""
     << (t.kind == SweepTask::Kind::kRun ? to_string(t.run.algorithm) : "SLAEE")
     << "\",\"testbed\":";
  write_json_string(os, t.testbed);
  os << ",\"concurrency\":"
     << (t.kind == SweepTask::Kind::kRun ? t.run.concurrency : t.sla.final_concurrency)
     << ",\"derived_seed\":" << t.derived_seed;
  if (t.kind == SweepTask::Kind::kRun) {
    os << ",\"chosen_concurrency\":" << t.run.chosen_concurrency;
  } else {
    os << ",\"target_percent\":" << jnum(t.sla.target_percent)
       << ",\"target_mbps\":" << jnum(to_mbps(t.sla.target_throughput))
       << ",\"deviation_percent\":" << jnum(t.sla.deviation_percent())
       << ",\"rearranged\":" << (t.sla.rearranged ? "true" : "false");
  }
  os << ",\"result\":{\"completed\":" << (r.completed ? "true" : "false")
     << ",\"duration_s\":" << jnum(r.duration) << ",\"bytes\":" << r.bytes
     << ",\"goodput_bytes\":" << r.goodput_bytes()
     << ",\"throughput_mbps\":" << jnum(to_mbps(r.avg_throughput()))
     << ",\"energy_j\":" << jnum(r.end_system_energy)
     << ",\"network_j\":" << jnum(r.network_energy)
     << ",\"ratio\":" << jnum(r.throughput_per_joule())
     << ",\"final_concurrency\":" << r.final_concurrency
     << ",\"retries\":" << r.faults.retries
     << ",\"wasted_bytes\":" << r.faults.wasted_bytes << "}";
  const auto& c = r.sim_counters;
  os << ",\"sim\":{\"scheduled\":" << c.scheduled << ",\"fired\":" << c.fired
     << ",\"cancelled\":" << c.cancelled << ",\"ticks\":" << c.ticks
     << ",\"peak_queue\":" << c.peak_queue << "}"
     << ",\"wall_ms\":" << jnum(t.wall_ms) << "}";
}

}  // namespace

void write_bench_json(std::ostream& os, const BenchRecord& record) {
  os << "{\n  \"schema\": \"eadt-bench-v1\",\n  \"name\": ";
  write_json_string(os, record.name);
  os << ",\n  \"commit\": ";
  write_json_string(os, record.commit);
  os << ",\n  \"jobs\": " << record.jobs << ",\n  \"scale\": " << record.scale
     << ",\n  \"total_wall_ms\": " << jnum(record.total_wall_ms)
     << ",\n  \"tasks\": [\n";
  for (std::size_t i = 0; i < record.tasks.size(); ++i) {
    json_task(os, record.tasks[i]);
    os << (i + 1 < record.tasks.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (!record.micro.empty()) {
    os << ",\n  \"micro\": [\n";
    for (std::size_t i = 0; i < record.micro.size(); ++i) {
      const MicroSample& m = record.micro[i];
      os << "    {\"name\":";
      write_json_string(os, m.name);
      os << ",\"ops\":" << m.ops << ",\"wall_ms\":" << jnum(m.wall_ms)
         << ",\"ops_per_sec\":" << jnum(m.ops_per_sec)
         << ",\"baseline_ops_per_sec\":" << jnum(m.baseline_ops_per_sec)
         << ",\"speedup\":" << jnum(m.speedup);
      if (!m.counts.empty()) {
        os << ",\"counts\":{";
        for (std::size_t c = 0; c < m.counts.size(); ++c) {
          if (c > 0) os << ',';
          write_json_string(os, m.counts[c].first);
          os << ':' << m.counts[c].second;
        }
        os << '}';
      }
      os << "}";
      os << (i + 1 < record.micro.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (!record.service.empty()) {
    os << ",\n  \"service\": [\n";
    for (std::size_t i = 0; i < record.service.size(); ++i) {
      const ServiceScenarioRecord& s = record.service[i];
      os << "    {\"name\":";
      write_json_string(os, s.name);
      os << ",\"submitted\":" << s.submitted << ",\"accepted\":" << s.accepted
         << ",\"rejected\":" << s.rejected << ",\"completed\":" << s.completed
         << ",\"failed\":" << s.failed << ",\"preemptions\":" << s.preemptions
         << ",\"deferrals\":" << s.deferrals
         << ",\"max_concurrent\":" << s.max_concurrent
         << ",\"power_cap_violations\":" << s.power_cap_violations
         << ",\"sla_interactive_met\":" << s.sla_interactive_met
         << ",\"sla_interactive_completed\":" << s.sla_interactive_completed
         << ",\"makespan_s\":" << jnum(s.makespan_s) << ",\"bytes\":" << s.bytes
         << ",\"energy_j\":" << jnum(s.energy_j)
         << ",\"cost_usd\":" << jnum(s.cost_usd)
         << ",\"peak_power_w\":" << jnum(s.peak_power_w)
         << ",\"peak_power_bound_w\":" << jnum(s.peak_power_bound_w)
         << ",\"power_cap_w\":" << jnum(s.power_cap_w)
         << ",\"wall_ms\":" << jnum(s.wall_ms) << "}";
      os << (i + 1 < record.service.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (!record.failover.empty()) {
    os << ",\n  \"failover\": [\n";
    for (std::size_t i = 0; i < record.failover.size(); ++i) {
      const FailoverScenarioRecord& f = record.failover[i];
      os << "    {\"name\":";
      write_json_string(os, f.name);
      os << ",\"jobs\":" << f.jobs << ",\"completed\":" << f.completed
         << ",\"failed\":" << f.failed << ",\"attempts\":" << f.attempts
         << ",\"migrations\":" << f.migrations
         << ",\"hedge_legs\":" << f.hedge_legs
         << ",\"power_cap_violations\":" << f.power_cap_violations
         << ",\"makespan_s\":" << jnum(f.makespan_s) << ",\"bytes\":" << f.bytes
         << ",\"energy_j\":" << jnum(f.energy_j)
         << ",\"hedge_energy_j\":" << jnum(f.hedge_energy_j)
         << ",\"wall_ms\":" << jnum(f.wall_ms) << "}";
      os << (i + 1 < record.failover.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  if (record.telemetry != nullptr) {
    os << ",\n  \"telemetry\": ";
    record.telemetry->write_json(os, 2);
  }
  if (record.flightrec != nullptr && record.flightrec->triggers() > 0) {
    os << ",\n  \"flightrec\": ";
    record.flightrec->write_json(os, 2);
  }
  if (!record.metrics.empty()) {
    os << ",\n  \"metrics\": ";
    obs::write_metrics_object(os, record.metrics, 2);
  }
  os << "\n}\n";
}

}  // namespace eadt::exp
