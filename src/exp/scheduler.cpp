#include "exp/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <type_traits>
#include <utility>

#include "baselines/baselines.hpp"
#include "exp/tick_pool.hpp"
#include "net/tcp_model.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "power/end_system.hpp"

namespace eadt::exp {

const char* to_string(SlaClass cls) noexcept {
  switch (cls) {
    case SlaClass::kInteractive: return "interactive";
    case SlaClass::kStandard: return "standard";
    case SlaClass::kScavenger: return "scavenger";
  }
  return "?";
}

SlaClass sla_class_of(JobPolicy policy) noexcept {
  switch (policy) {
    case JobPolicy::kDeadline:
    case JobPolicy::kSla: return SlaClass::kInteractive;
    case JobPolicy::kBalanced:
    case JobPolicy::kEnergyBudget: return SlaClass::kStandard;
    case JobPolicy::kGreen: return SlaClass::kScavenger;
  }
  return SlaClass::kStandard;
}

Watts session_peak_power_bound(const proto::Environment& env) {
  // Eq. 1 with every utilization at its clamp (1.0) and Eq. 2 at its worst
  // admissible core count: the polynomial is convex, so its maximum over
  // 1..cores is at an endpoint. One session can at most activate every
  // server of both endpoints, each drawing its activation base on top.
  const auto side = [](const proto::Endpoint& ep) {
    Watts w = 0.0;
    for (const auto& s : ep.servers) {
      const double coef = std::max(power::cpu_coefficient(1),
                                   power::cpu_coefficient(std::max(1, s.cores)));
      w += ep.power.active_base + ep.power.cpu_scale * coef + ep.power.mem +
           ep.power.disk + ep.power.nic;
    }
    return w;
  };
  return side(env.source) + side(env.destination);
}

std::string scheduler_report_payload(const SchedulerReport& report) {
  std::string out;
  out.reserve(256 + report.jobs.size() * 512);
  const auto hexf = [&out](const char* key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%a\n", key, v);
    out += buf;
  };
  const auto intf = [&out](const char* key, long long v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%lld\n", key, v);
    out += buf;
  };
  for (const TenantOutcome& t : report.jobs) {
    out += "job ";
    out += t.name;
    out += '\n';
    out += "policy=";
    out += to_string(t.policy);
    out += '\n';
    out += "class=";
    out += to_string(t.sla_class);
    out += '\n';
    hexf("submitted_at", t.submitted_at);
    hexf("started_at", t.started_at);
    hexf("finished_at", t.finished_at);
    intf("rejected", t.rejected ? 1 : 0);
    intf("failed", t.failed ? 1 : 0);
    intf("sla_met", t.sla_met ? 1 : 0);
    intf("attempts", t.attempts);
    intf("preemptions", t.preemptions);
    intf("deferrals", t.deferrals);
    intf("migrations", t.migrations);
    intf("path", t.path);
    hexf("cost_usd", t.cost_usd);
    const proto::RunResult& r = t.result;
    hexf("duration", r.duration);
    intf("bytes", static_cast<long long>(r.bytes));
    hexf("end_system_energy", r.end_system_energy);
    hexf("network_energy", r.network_energy);
    intf("final_concurrency", r.final_concurrency);
    intf("completed", r.completed ? 1 : 0);
    intf("retries", r.faults.retries);
    intf("channel_drops", r.faults.channel_drops);
    intf("checksum_failures", r.faults.checksum_failures);
    intf("server_outages", r.faults.server_outages);
    intf("wasted_bytes", static_cast<long long>(r.faults.wasted_bytes));
    hexf("wasted_joules", r.faults.wasted_joules);
    hexf("channel_downtime", r.faults.channel_downtime);
    for (const proto::SampleStats& s : r.samples) {
      hexf("s.start", s.window_start);
      hexf("s.end", s.window_end);
      intf("s.bytes", static_cast<long long>(s.bytes));
      hexf("s.energy", s.end_system_energy);
      intf("s.channels", s.active_channels);
      intf("s.down", s.down_channels);
    }
    for (const RecoveryEvent& e : t.recovery.events) {
      hexf("r.at", e.at);
      intf("r.attempt", e.attempt);
      out += "r.action=";
      out += to_string(e.action);
      out += '\n';
      out += "r.policy=";
      out += e.policy;
      out += '\n';
      intf("r.max_channels", e.max_channels);
    }
  }
  out += "aggregate\n";
  intf("submitted", report.submitted);
  intf("accepted", report.accepted);
  intf("rejected", report.rejected);
  intf("completed", report.completed);
  intf("failed", report.failed);
  intf("preemptions", report.preemptions);
  intf("deferrals", report.deferrals);
  intf("migrations", report.migrations);
  hexf("makespan", report.makespan);
  intf("total_bytes", static_cast<long long>(report.total_bytes));
  hexf("total_energy", report.total_energy);
  hexf("total_cost_usd", report.total_cost_usd);
  hexf("peak_power", report.peak_power);
  hexf("peak_power_bound", report.peak_power_bound);
  intf("power_cap_violations", report.power_cap_violations);
  intf("max_concurrent", report.max_concurrent_observed);
  for (const SlaClassStats* c :
       {&report.interactive, &report.standard, &report.scavenger}) {
    intf("c.submitted", c->submitted);
    intf("c.rejected", c->rejected);
    intf("c.completed", c->completed);
    intf("c.failed", c->failed);
    intf("c.sla_met", c->sla_met);
  }
  return out;
}

namespace {

[[nodiscard]] int class_rank(SlaClass cls) noexcept {
  switch (cls) {
    case SlaClass::kInteractive: return 0;
    case SlaClass::kStandard: return 1;
    case SlaClass::kScavenger: return 2;
  }
  return 1;
}

/// Below this many running tenants the pool handshake costs more than the
/// phases it would shard, so the tick stays serial. Purely a wall-clock
/// cutoff: the output is byte-identical either way.
constexpr std::size_t kMinParallelTenants = 16;

/// Wall-clock lap timer for the tick pipeline's phases. Inert (never reads
/// the clock) without a profiler, so the deterministic path costs nothing.
struct PhaseTimer {
  explicit PhaseTimer(obs::TickProfiler* profiler) : prof(profiler) {
    if (prof != nullptr) last = std::chrono::steady_clock::now();
  }
  void lap(obs::TickProfiler::Phase phase) {
    if (prof == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    prof->observe(phase, std::chrono::duration<double, std::micro>(now - last).count());
    last = now;
  }
  obs::TickProfiler* prof;
  std::chrono::steady_clock::time_point last;
};

/// One tick phase over [0, count): sharded across the pool when one is
/// engaged, inline in index order otherwise. The lambda is passed by address
/// as the pool's context — no std::function, no allocation on the tick path.
template <typename Fn>
void run_phase(TickPool* pool, std::size_t count, Fn&& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->run(
      count,
      [](void* ctx, std::size_t i) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(i);
      },
      &fn);
}

}  // namespace

/// One tenant's live state. `out` accumulates the reportable fate; the rest
/// is the machinery of the current leg.
struct Scheduler::Tenant {
  std::size_t index = 0;
  SchedulerJob spec;
  LadderState ladder{JobPolicy::kBalanced, 1};
  std::optional<proto::TransferCheckpoint> journal;
  std::unique_ptr<proto::TransferSession> session;
  std::unique_ptr<proto::Controller> controller;
  obs::ObsSinks* sinks = nullptr;
  Seconds attempt_started = 0.0;   ///< raw clock at the current leg's begin()
  Seconds attempt_deadline = 0.0;  ///< watchdog for the current leg (0 = none)
  int deadline_aborts = 0;  ///< watchdog aborts only; preemptions don't count
  int path = 0;             ///< current site (sites_ index; 0 in a plain run)
  std::size_t tick_index = 0;  ///< position in running_ this tick (staging key)
  enum class State { kPending, kQueued, kDeferred, kRunning, kDone } state = State::kPending;
  TenantOutcome out;
};

Scheduler::Scheduler(testbeds::Testbed testbed, BitsPerSecond reference_rate,
                     SchedulerPolicy policy, proto::SessionConfig base_config)
    : testbed_(std::move(testbed)), reference_rate_(reference_rate), policy_(policy),
      base_config_(base_config) {
  policy_.max_concurrent = std::max(1, policy_.max_concurrent);
  policy_.max_queue_depth = std::max(1, policy_.max_queue_depth);
  if (reference_rate_ <= 0.0) {
    // Same probe the TransferService runs: the site's ProMC best case.
    const auto probe = testbed_.make_dataset();
    proto::TransferSession session(
        testbed_.env, probe,
        baselines::plan_promc(testbed_.env, probe, testbed_.default_max_channels),
        base_config_);
    reference_rate_ = session.run().avg_throughput();
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::record(Tenant& t, RecoveryAction action, Seconds at,
                       std::string detail) {
  t.out.recovery.events.push_back({at, std::max(1, t.out.attempts), action,
                                   to_string(t.ladder.policy), t.ladder.channels,
                                   detail});
  obs::ObsSinks* s = t.sinks;
  if (s == nullptr) return;
  if (s->metrics != nullptr) s->metrics->counter(recovery_metric(action)).add(1);
  if (s->decisions != nullptr) {
    obs::Decision d;
    d.at = at;
    d.kind = recovery_decision_kind(action);
    d.actor = "Scheduler";
    d.level = t.ladder.channels;
    d.chosen = t.ladder.channels;
    d.subject = std::string(to_string(action)) + " " + t.out.name + " (" +
                to_string(t.ladder.policy) + ")";
    d.detail = std::move(detail);
    s->decisions->record(std::move(d));
  }
}

void Scheduler::decide(Tenant& t, obs::DecisionKind kind, std::string subject,
                       std::string detail) {
  obs::ObsSinks* s = t.sinks;
  if (s == nullptr || s->decisions == nullptr) return;
  obs::Decision d;
  d.at = sim_.now();
  d.kind = kind;
  d.actor = "Scheduler";
  d.level = t.ladder.channels;
  d.chosen = static_cast<int>(running_.size());
  d.subject = std::move(subject);
  d.detail = std::move(detail);
  s->decisions->record(std::move(d));
}

Seconds Scheduler::defer_delay(const Tenant& t) const {
  if (!tariff_ || policy_.max_defer <= 0.0) return 0.0;
  if (t.out.sla_class != SlaClass::kScavenger) return 0.0;
  const Seconds abs = tariff_start_ + sim_.now();
  const double now_price = tariff_->price_at(abs);
  const Seconds target = tariff_->cheapest_hour() * 3600.0;
  Seconds tod = std::fmod(abs, power::kSecondsPerDay);
  Seconds delay = target - tod;
  if (delay < 0.0) delay += power::kSecondsPerDay;
  if (delay <= 0.0 || delay > policy_.max_defer) return 0.0;
  if (tariff_->price_at(abs + delay) >= now_price) return 0.0;  // already cheap
  return delay;
}

void Scheduler::on_submit(Tenant& t) {
  ++report_.submitted;
  // Bounded admission: the waiting room (queued + deferred) is finite and
  // overflow is an explicit, accounted rejection — never a silent drop.
  int waiting = static_cast<int>(queue_.size());
  for (const auto& other : tenants_) {
    waiting += other->state == Tenant::State::kDeferred ? 1 : 0;
  }
  // Shed only when no site could ever host one session under its cap.
  const bool over_cap = std::none_of(sites_.begin(), sites_.end(), [](const Site& s) {
    return s.cap <= 0.0 || s.session_peak <= s.cap;
  });
  if (waiting >= policy_.max_queue_depth || over_cap) {
    t.out.rejected = true;
    t.out.finished_at = sim_.now();
    ++report_.rejected;
    record(t, RecoveryAction::kShed, sim_.now(),
           over_cap ? "one session's peak draw cannot fit under the site power cap"
                    : "waiting queue full (" + std::to_string(waiting) + "/" +
                          std::to_string(policy_.max_queue_depth) + ")");
    retire(t);
    return;
  }
  ++report_.accepted;
  decide(t, obs::DecisionKind::kSchedulerAdmit, "admit " + t.out.name,
         std::string("class ") + to_string(t.out.sla_class) + ", queue depth " +
             std::to_string(waiting));
  if (const Seconds delay = defer_delay(t); delay > 0.0) {
    t.state = Tenant::State::kDeferred;
    ++t.out.deferrals;
    ++report_.deferrals;
    ++deferred_;
    record(t, RecoveryAction::kDefer, sim_.now(),
           "shifting the start " + std::to_string(delay) +
               " s into the tariff's cheapest band");
    Tenant* tp = &t;
    sim_.schedule_after(delay, [this, tp] {
      if (tp->state != Tenant::State::kDeferred) return;
      --deferred_;
      enqueue(*tp);
      try_dispatch();
    });
    return;
  }
  enqueue(t);
  try_dispatch();
}

void Scheduler::enqueue(Tenant& t) {
  t.state = Tenant::State::kQueued;
  // Class-priority insertion, stable within a class: interactive jobs pass
  // waiting batch work, scavengers go last.
  const int rank = class_rank(t.out.sla_class);
  auto it = queue_.begin();
  while (it != queue_.end() && class_rank((*it)->out.sla_class) <= rank) ++it;
  queue_.insert(it, &t);
}

bool Scheduler::can_dispatch(const Tenant&) const {
  if (static_cast<int>(running_.size()) >= policy_.max_concurrent) return false;
  return pick_path() >= 0;
}

int Scheduler::pick_path(bool allow_failed) const {
  int best = -1;
  double best_phi = 0.0;
  for (int p = 0; p < static_cast<int>(sites_.size()); ++p) {
    const Site& site = sites_[p];
    if (multipath() && !allow_failed && health_->failed(p)) continue;
    if (site.cap > 0.0 && site.running_peak + site.session_peak > site.cap + 1e-9) {
      continue;  // this site has no power headroom for one more session
    }
    if (policy_.power_cap > 0.0 &&
        running_peak_sum_ + site.session_peak > policy_.power_cap + 1e-9) {
      continue;  // the cross-site sum is capped too
    }
    const double phi = multipath() ? health_->phi(p) : 0.0;
    if (best == -1 || phi < best_phi) {  // strict <: lowest index wins ties
      best = p;
      best_phi = phi;
    }
  }
  return best;
}

int Scheduler::pick_path() const {
  // Prefer healthy sites; when every path has failed health, a capped-but-alive
  // placement still beats refusing service, so retry ignoring the verdict.
  const int p = pick_path(/*allow_failed=*/false);
  return p >= 0 ? p : pick_path(/*allow_failed=*/true);
}

void Scheduler::end_leg(Tenant& t, bool completed, Seconds end_raw) {
  t.out.result = t.session->finalize(completed, end_raw);
  t.session.reset();
  t.controller.reset();
  running_.erase(std::find(running_.begin(), running_.end(), &t));
  Site& site = sites_[t.path];
  running_peak_sum_ -= site.session_peak;
  site.running_peak -= site.session_peak;
}

TickPool* Scheduler::tick_pool() const noexcept {
  if (pool_ == nullptr) return nullptr;
  if (running_.size() < kMinParallelTenants) return nullptr;
  // Without a collector every tenant shares base_config_.obs, and trace /
  // decision slots are single-writer — sharded prepare phases would race on
  // them. A collector gives each tenant its own slot, so the gate opens.
  if (collector_ == nullptr && base_config_.obs != nullptr) return nullptr;
  return pool_.get();
}

void Scheduler::stage_allocations(const std::vector<Tenant*>& group, const double eff,
                                  const double burst_cap) {
  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto slice = arbiter_.slice(i);
    StagedSlice& staged = tick_slices_[group[i]->tick_index];
    staged.offset = tick_alloc_.size();
    staged.count = slice.size();
    staged.eff = eff;
    staged.burst_cap = burst_cap;
    tick_alloc_.insert(tick_alloc_.end(), slice.begin(), slice.end());
  }
}

void Scheduler::try_dispatch() {
  while (!queue_.empty()) {
    Tenant& head = *queue_.front();
    if (can_dispatch(head)) {
      queue_.erase(queue_.begin());
      dispatch(head);
      continue;
    }
    // An interactive tenant blocked on capacity may evict background work:
    // the most recently dispatched scavenger is checkpointed and re-queued.
    if (head.out.sla_class == SlaClass::kInteractive) {
      Tenant* victim = nullptr;
      for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
        if ((*it)->out.sla_class == SlaClass::kScavenger) {
          victim = *it;
          break;
        }
      }
      if (victim != nullptr) {
        preempt(*victim);
        continue;  // re-check the head against the freed capacity
      }
    }
    break;
  }
}

void Scheduler::dispatch(Tenant& t) {
  const TransferJob& job = t.spec.job;
  obs::DecisionLog* decisions = t.sinks != nullptr ? t.sinks->decisions : nullptr;
  // Placement IS migration: every dispatch (first leg, resume after an
  // abort, re-dispatch after a preemption) lands on the healthiest site with
  // power headroom. A journal taken on a different site than the one chosen
  // makes this leg a failover, never a plain retry — which is what keeps
  // `migrations <= attempts` an invariant rather than a hope. A plain run's
  // journals all name site 0, so it never migrates.
  const int chosen = pick_path();
  if (chosen >= 0) {
    if (t.journal && t.journal->path_id != chosen) {
      ++t.out.migrations;
      ++report_.migrations;
      record(t, RecoveryAction::kMigrate, sim_.now(),
             "resuming on " + policy_.paths.option(chosen).name + " (phi " +
                 std::to_string(health_->phi(chosen)) + ") instead of " +
                 policy_.paths.option(t.journal->path_id).name + " (phi " +
                 std::to_string(health_->phi(t.journal->path_id)) + ")");
    }
    t.path = chosen;
  }
  t.out.path = t.path;
  Site& site = sites_[t.path];
  const proto::Environment& env = site.env;
  OperatingPoint op = make_operating_point(
      env, job.dataset, t.ladder.policy, t.ladder.channels,
      job.sla_percent, job.energy_budget, reference_rate_, decisions);

  proto::SessionConfig config = base_config_;
  config.obs = t.sinks;
  config.path_id = t.path;
  if (policy_.supervision.attempt_deadline > 0.0) {
    config.max_sim_time = policy_.supervision.attempt_deadline;
  }
  t.session = std::make_unique<proto::TransferSession>(
      sim_, env, job.dataset, std::move(op.plan), config);
  t.controller = std::move(op.controller);
  t.session->set_fault_plan(site.faults);
  if (t.journal) {
    std::string err;
    if (!t.session->resume_from(*t.journal, &err)) {
      fail(t, "resume failed: " + err);
      return;
    }
  }
  if (auto bad = t.session->begin(t.controller.get())) {
    fail(t, std::move(*bad));
    return;
  }
  t.attempt_started = sim_.now();
  t.attempt_deadline = policy_.supervision.attempt_deadline;
  ++t.out.attempts;
  if (t.out.attempts == 1) t.out.started_at = sim_.now();
  t.state = Tenant::State::kRunning;
  running_.push_back(&t);
  running_peak_sum_ += site.session_peak;
  site.running_peak += site.session_peak;
  report_.peak_power_bound = std::max(report_.peak_power_bound, running_peak_sum_);
  report_.max_concurrent_observed =
      std::max(report_.max_concurrent_observed, static_cast<int>(running_.size()));
  if (t.journal) {
    record(t, RecoveryAction::kResume, t.journal->taken_at,
           "resuming from the checkpoint journal (" +
               std::to_string(t.journal->completed.size()) + " files landed)");
  }
  decide(t, obs::DecisionKind::kSchedulerDispatch,
         "dispatch " + t.out.name + " (attempt " + std::to_string(t.out.attempts) + ")",
         std::to_string(running_.size()) + " running, peak bound " +
             std::to_string(running_peak_sum_) + " W");
}

void Scheduler::preempt(Tenant& t) {
  end_leg(t, false, sim_.now());
  t.journal = t.out.result.checkpoint;
  ++t.out.preemptions;
  ++report_.preemptions;
  record(t, RecoveryAction::kPreempt, sim_.now(),
         "checkpointed to free capacity for an interactive tenant (" +
             std::to_string(t.out.result.goodput_bytes()) + " B landed)");
  enqueue(t);  // scavenger rank puts it behind all foreground work
}

void Scheduler::abort_attempt(Tenant& t, Seconds end_raw) {
  end_leg(t, false, end_raw);
  t.journal = t.out.result.checkpoint;
  ++t.deadline_aborts;
  ++watchdog_aborts_;
  if (flightrec_ != nullptr) {
    flightrec_->trigger("watchdog abort: " + t.out.name, sim_.now());
  }
  if (multipath()) {
    // A watchdog abort is evidence against the path the leg ran on; the
    // demerit decays with sim-time, so one flap does not exile a site.
    health_->observe_fault(t.path, sim_.now());
  }
  record(t, RecoveryAction::kDeadlineAbort, sim_.now(),
         "attempt hit its " + std::to_string(t.attempt_deadline) +
             " s deadline; checkpoint taken");
  if (t.deadline_aborts >= policy_.supervision.max_attempts) {
    fail(t, "retry budget (" + std::to_string(policy_.supervision.max_attempts) +
                " attempts) spent");
    return;
  }
  if (!t.journal) {
    fail(t, "aborted run left no checkpoint");
    return;
  }
  if (const auto step = t.ladder.on_abort(policy_.supervision)) {
    record(t, *step, sim_.now(),
           *step == RecoveryAction::kReduceChannels
               ? "stepping down to " + std::to_string(t.ladder.channels) + " channels"
               : "channel floor reached; falling back to the minimum-energy plan");
  }
  // An aborted job keeps its place at the head of its class: it has already
  // burned site time and should finish before fresh arrivals of equal rank.
  t.state = Tenant::State::kQueued;
  const int rank = class_rank(t.out.sla_class);
  auto it = queue_.begin();
  while (it != queue_.end() && class_rank((*it)->out.sla_class) < rank) ++it;
  queue_.insert(it, &t);
}

void Scheduler::complete(Tenant& t) {
  Seconds end_raw = sim_.now();
  if (t.attempt_deadline > 0.0) {
    // Same clamp as the single-session run loop: ticker float error must not
    // push a finish past the watchdog deadline it was admitted under.
    end_raw = std::min(end_raw, t.attempt_started + t.attempt_deadline);
  }
  end_leg(t, true, end_raw);
  t.out.finished_at = sim_.now();
  ++report_.completed;
  if (t.spec.job.policy == JobPolicy::kSla) {
    const BitsPerSecond target = reference_rate_ * t.spec.job.sla_percent / 100.0;
    t.out.sla_met = t.out.result.avg_throughput() >= target * 0.93;
  } else {
    t.out.sla_met = true;
  }
  decide(t, obs::DecisionKind::kSchedulerDone, "done " + t.out.name,
         "completed in " + std::to_string(t.out.attempts) + " attempt(s), " +
             std::to_string(t.out.preemptions) + " preemption(s)");
  retire(t);
}

void Scheduler::fail(Tenant& t, std::string reason) {
  t.out.failed = true;
  t.out.sla_met = false;
  t.out.finished_at = sim_.now();
  ++report_.failed;
  record(t, RecoveryAction::kGiveUp, sim_.now(), reason);
  decide(t, obs::DecisionKind::kSchedulerDone, "failed " + t.out.name,
         std::move(reason));
  retire(t);
}

void Scheduler::retire(Tenant& t) {
  t.state = Tenant::State::kDone;
  if (t.out.finished_at <= 0.0) t.out.finished_at = sim_.now();
  --unfinished_;
  if (t.sinks != nullptr && t.sinks->metrics != nullptr) {
    auto& m = *t.sinks->metrics;
    const std::string prefix = "tenant." + t.out.name + ".";
    m.counter(prefix + "attempts").add(static_cast<std::uint64_t>(t.out.attempts));
    if (t.out.preemptions > 0) {
      m.counter(prefix + "preemptions")
          .add(static_cast<std::uint64_t>(t.out.preemptions));
    }
    if (t.out.deferrals > 0) {
      m.counter(prefix + "deferrals").add(static_cast<std::uint64_t>(t.out.deferrals));
    }
    if (t.out.migrations > 0) {
      m.counter(prefix + "migrations").add(static_cast<std::uint64_t>(t.out.migrations));
    }
    const char* fate = t.out.rejected ? "rejected" : t.out.failed ? "failed" : "completed";
    m.counter(prefix + fate).add(1);
  }
}

bool Scheduler::master_tick() {
  if (sim_.now() > policy_.horizon) return false;

  // Watchdogs first, mirroring the single-session guard: a leg whose local
  // clock has passed its deadline is aborted before this tick's work.
  if (policy_.supervision.attempt_deadline > 0.0 && !running_.empty()) {
    overdue_.clear();
    for (Tenant* t : running_) {
      if (sim_.now() - t->attempt_started > t->attempt_deadline) overdue_.push_back(t);
    }
    for (Tenant* t : overdue_) {
      abort_attempt(*t, t->attempt_started + t->attempt_deadline);
    }
    if (!overdue_.empty()) try_dispatch();
  }

  if (!running_.empty()) {
    const std::size_t n_run = running_.size();
    TickPool* pool = tick_pool();
    PhaseTimer timer(profiler_);

    // Phase 1 (parallel-safe): per-session prepare + demand collection +
    // group collapse. Each tenant touches only its own session state and its
    // own single-writer obs slot, so sharding cannot reorder anything a
    // tenant observes — the joint rounds below read the results in
    // admission order regardless of which worker produced them.
    run_phase(pool, n_run, [&](std::size_t i) {
      Tenant& t = *running_[i];
      t.tick_index = i;
      t.session->tick_prepare();
      t.session->collect_link_demands();
      (void)t.session->link_demand_groups();
    });
    timer.lap(obs::TickProfiler::kPrepare);

    // Phase 2 (serial): ONE joint fair-share round per site over its
    // tenants' demands, submitted in admission order — the order, not the
    // worker schedule, is what the allocation depends on. The arbiter is
    // reused round by round, so each round's slices are staged before the
    // next begin_round invalidates them; that is also what lets the rate
    // application run sharded afterwards.
    tick_alloc_.clear();
    tick_slices_.resize(n_run);
    for (std::size_t p = 0; p < sites_.size(); ++p) {
      Site& site = sites_[p];
      // A one-site run places every tenant there: submit running_ itself.
      const std::vector<Tenant*>* group = &running_;
      if (sites_.size() > 1) {
        site_group_.clear();
        for (Tenant* t : running_) {
          if (t->path == static_cast<int>(p)) site_group_.push_back(t);
        }
        group = &site_group_;
      }
      // -1 marks a site with no running tenants this tick: it carries no
      // goodput signal (an idle path is not an unhealthy path).
      site.capacity = -1.0;
      if (group->empty()) continue;

      // Site-level brownouts scale the link for everyone on it, and a
      // per-session fault brownout is a property of the path too — the most
      // degraded view wins. With one tenant and no site events this is
      // exactly the session's own `bandwidth * path_factor`.
      double min_path = group->front()->session->path_factor();
      for (const Tenant* t : *group) min_path = std::min(min_path, t->session->path_factor());
      const BitsPerSecond capacity =
          site.env.path.available_bandwidth() * site.link_factor * min_path;
      site.capacity = capacity;

      arbiter_.begin_round(capacity);
      // Grouped submission: each tenant's demand list is run-length
      // collapsed, which the arbiter expands back verbatim — the joint round
      // is bitwise the same as per-flow submit(), and fleets of same-shape
      // tenants let the waterfill path solve at group cost.
      for (Tenant* t : *group) arbiter_.submit_groups(t->session->cached_link_demand_groups());
      arbiter_.allocate();

      double agg_demand = 0.0;
      int agg_streams = 0;
      for (const Tenant* t : *group) {
        agg_demand += t->session->aggregate_demand();
        agg_streams += t->session->aggregate_streams();
      }
      const double eff = net::congestion_efficiency(site.env.congestion, agg_demand,
                                                    capacity, agg_streams);
      double total_avg = 0.0;
      for (std::size_t i = 0; i < group->size(); ++i) {
        for (const BitsPerSecond a : arbiter_.slice(i)) total_avg += a * eff;
      }
      const double burst_cap =
          total_avg > 0.0 ? std::max(1.0, capacity / total_avg) : 1.0;
      stage_allocations(*group, eff, burst_cap);
    }
    timer.lap(obs::TickProfiler::kArbiter);

    // Phase 3a (parallel-safe): rate application and byte/energy compute.
    // Rates, channel movement and the energy ledgers are pure per-session
    // math over the staged slice (the per-session jitter RNG included), so
    // tenants shard freely. Every running tenant sits on exactly one site,
    // so every slot of tick_slices_ was staged above.
    run_phase(pool, n_run, [&](std::size_t i) {
      const StagedSlice& staged = tick_slices_[i];
      proto::TransferSession& s = *running_[i]->session;
      s.apply_link_allocation(
          std::span<const BitsPerSecond>(tick_alloc_.data() + staged.offset,
                                         staged.count),
          staged.eff, staged.burst_cap);
      s.advance_compute();
    });
    timer.lap(obs::TickProfiler::kApply);

    // Phase 3b (serial commit, admission order): everything that touches the
    // shared simulation or cross-tenant books — checkpoint emission, obs,
    // sampling/controller callbacks, the site-wide and per-site power sums
    // (kept in admission order so the floating-point reduction is bitwise
    // the sequential one), and completion collection.
    finished_.clear();
    Watts measured = 0.0;
    for (Site& site : sites_) {
      site.measured = 0.0;
      site.bytes = 0.0;
    }
    for (Tenant* t : running_) {
      const bool more = t->session->advance_commit();
      const Watts power = t->session->last_tick_power();
      Site& site = sites_[t->path];
      measured += power;
      site.measured += power;
      site.bytes += static_cast<double>(t->session->last_tick_bytes());
      if (!more) finished_.push_back(t);
    }
    report_.peak_power = std::max(report_.peak_power, measured);
    const bool cap_exceeded =
        policy_.power_cap > 0.0 && measured > policy_.power_cap * (1.0 + 1e-9);
    if (cap_exceeded) ++report_.power_cap_violations;
    // Per-site caps count on their own only with a PathSet: a plain run's
    // one site is capped by `power_cap`, already counted above.
    const auto site_over = [](const Site& site) {
      return site.cap > 0.0 && site.measured > site.cap * (1.0 + 1e-9);
    };
    if (multipath()) {
      report_.power_cap_violations +=
          static_cast<int>(std::count_if(sites_.begin(), sites_.end(), site_over));
    }
    flight_note(measured);
    if (flightrec_ != nullptr) {
      if (cap_exceeded) {
        flightrec_->trigger("site power cap measured above bound", sim_.now());
      }
      for (std::size_t p = 0; multipath() && p < sites_.size(); ++p) {
        if (site_over(sites_[p])) {
          flightrec_->trigger(
              "per-site power cap measured above bound: " + policy_.paths.option(p).name,
              sim_.now());
        }
      }
    }
    if (collector_ != nullptr) {
      collector_->metrics().gauge("scheduler.peak_power_w").set_max(measured);
    }
    if (multipath()) {
      for (std::size_t p = 0; p < sites_.size(); ++p) {
        const Site& site = sites_[p];
        if (site.capacity < 0.0) continue;  // no tenants placed here this tick
        // Scored against the path's *nominal* bandwidth, not the browned-out
        // arbitration capacity: a brownout must read as lost goodput,
        // otherwise a path delivering 10% of itself would look perfectly
        // healthy.
        const double expected =
            site.env.path.available_bandwidth() * base_config_.tick / 8.0;
        const double frac = expected > 0.0 ? site.bytes / expected : 1.0;
        health_->observe_goodput(static_cast<int>(p), sim_.now(), std::min(1.0, frac));
      }
      // Read phi only once every site is fed: phi() decays fault demerits to
      // the monitor's latest observation time, which the feed above advances.
      for (std::size_t p = 0; p < sites_.size(); ++p) {
        const Site& site = sites_[p];
        const double phi = health_->phi(static_cast<int>(p));
        if (collector_ != nullptr) {
          collector_->metrics()
              .gauge("scheduler.path." + policy_.paths.option(p).name + ".phi")
              .set_max(phi);
        }
        if (site.phi_track != nullptr) {
          sched_sinks_->trace->counter(sim_.now(), site.phi_track, phi);
        }
      }
    }
    sample_telemetry(measured);
    for (Tenant* t : finished_) complete(*t);
    timer.lap(obs::TickProfiler::kCommit);
  }

  try_dispatch();
  emit_sched_tracks();
  // Incremental trace export: drain the streamed buffer every master tick so
  // a week-long schedule never hits the buffer cap. Cheap when empty.
  if (stream_ != nullptr) stream_->flush();
  return unfinished_ > 0;
}

void Scheduler::sample_telemetry(Watts measured) {
  if (telemetry_ == nullptr || !telemetry_->due(sim_.now())) return;
  // Runs in the serial commit section, before completions are retired, and
  // reads only deterministic sim-state — which is the whole determinism
  // argument for the eadt-telemetry-v1 export. Allocation-free: the scratch
  // sample's vectors are pre-sized by the hub.
  obs::TelemetrySample& s = telemetry_->scratch();
  s.running = static_cast<int>(running_.size());
  s.queued = static_cast<int>(queue_.size());
  s.deferred = deferred_;
  int channels = 0;
  for (const Tenant* t : running_) channels += t->session->open_channel_count();
  s.channels = channels;
  s.shed = static_cast<std::uint64_t>(report_.rejected);
  s.preempted = static_cast<std::uint64_t>(report_.preemptions);
  s.migrated = static_cast<std::uint64_t>(report_.migrations);
  s.completed = static_cast<std::uint64_t>(report_.completed);
  s.failed = static_cast<std::uint64_t>(report_.failed);
  s.power_w = measured;
  s.cap_w = policy_.power_cap;
  s.class_running.fill(0);
  s.class_burn.fill(0.0);
  std::array<double, obs::kTelemetryClasses> burn_sum{};
  std::array<int, obs::kTelemetryClasses> burn_n{};
  for (const Tenant* t : running_) {
    const auto c = static_cast<std::size_t>(class_rank(t->out.sla_class));
    ++s.class_running[c];
    if (t->attempt_deadline > 0.0) {
      burn_sum[c] += deadline_burn(t->attempt_started, sim_.now(), t->attempt_deadline);
      ++burn_n[c];
    }
  }
  for (std::size_t c = 0; c < obs::kTelemetryClasses; ++c) {
    if (burn_n[c] > 0) s.class_burn[c] = burn_sum[c] / burn_n[c];
  }
  const std::size_t sites = std::min(telemetry_->site_count(), sites_.size());
  for (std::size_t p = 0; p < sites; ++p) {
    s.site_power_w[p] = sites_[p].measured;
    s.site_cap_w[p] = sites_[p].cap;
    s.site_phi[p] = multipath() ? health_->phi(static_cast<int>(p)) : 0.0;
  }
  telemetry_->record(sim_.now());
}

void Scheduler::flight_note(Watts measured) {
  if (flightrec_ == nullptr) return;
  obs::FlightTick ft;
  ft.t = sim_.now();
  ft.running = static_cast<int>(running_.size());
  ft.queued = static_cast<int>(queue_.size());
  ft.deferred = deferred_;
  ft.power_w = measured;
  ft.cap_w = policy_.power_cap;
  ft.watchdog_aborts = watchdog_aborts_;
  ft.cap_violations = static_cast<std::uint64_t>(report_.power_cap_violations);
  flightrec_->note(ft);
}

void Scheduler::emit_sched_tracks() {
  if (sched_sinks_ == nullptr || sched_sinks_->trace == nullptr ||
      sched_running_track_ == nullptr) {
    return;
  }
  // Change-gated: a 200k-tick fleet run emits a point only when the fleet
  // state moved, which keeps long traces bounded by events, not by ticks.
  const int running = static_cast<int>(running_.size());
  const int queued = static_cast<int>(queue_.size());
  const int shed = report_.rejected;
  if (running == last_track_running_ && queued == last_track_queued_ &&
      shed == last_track_shed_) {
    return;
  }
  last_track_running_ = running;
  last_track_queued_ = queued;
  last_track_shed_ = shed;
  sched_sinks_->trace->counter(sim_.now(), sched_running_track_, running);
  sched_sinks_->trace->counter(sim_.now(), sched_queued_track_, queued);
  sched_sinks_->trace->counter(sim_.now(), sched_shed_track_, shed);
}

SchedulerReport Scheduler::run(std::vector<SchedulerJob> jobs) {
  report_ = {};
  // The tick pool lives for the whole schedule: workers park between phases
  // (and between ticks), so a dispatch is a notify, not a thread spawn.
  if (policy_.jobs > 1) pool_ = std::make_unique<TickPool>(policy_.jobs);
  // The sites are fixed from here on (sessions hold references into them).
  // A PathSet option re-binds path and route, sees only the brownouts aimed
  // at it, and is capped by its own entry of `path_power_caps` when set.
  sites_.clear();
  if (multipath()) {
    for (int p = 0; p < static_cast<int>(policy_.paths.size()); ++p) {
      const Watts own = p < static_cast<int>(policy_.path_power_caps.size())
                            ? policy_.path_power_caps[p]
                            : 0.0;
      sites_.push_back({environment_for_path(testbed_.env, policy_.paths.option(p)),
                        faults_.for_path(p), own > 0.0 ? own : policy_.power_cap});
    }
    health_ = std::make_unique<HealthMonitor>(static_cast<int>(sites_.size()),
                                              policy_.health);
  } else {
    sites_.push_back({testbed_.env, faults_, policy_.power_cap});
  }
  for (Site& site : sites_) site.session_peak = session_peak_power_bound(site.env);
  tenants_.clear();
  tenants_.reserve(jobs.size());
  unfinished_ = static_cast<int>(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto t = std::make_unique<Tenant>();
    t->index = i;
    t->spec = std::move(jobs[i]);
    t->ladder = LadderState{t->spec.job.policy, std::max(1, t->spec.job.max_channels)};
    t->out.name = t->spec.job.name;
    t->out.policy = t->spec.job.policy;
    t->out.sla_class = sla_class_of(t->spec.job.policy);
    t->out.submitted_at = t->spec.submit_at;
    if (collector_ != nullptr) {
      t->sinks = collector_->slot(slot_base_ + i, t->spec.job.name);
    } else {
      t->sinks = base_config_.obs;
    }
    tenants_.push_back(std::move(t));
  }
  if (collector_ != nullptr) {
    // Scheduler-level slot, placed after the per-tenant slots. Fleet-level
    // counter tracks (running/queued/shed) land here so a trace is readable
    // without per-tenant drilldown; PathSet runs add per-path phi tracks
    // showing the health the placement decisions actually saw.
    sched_sinks_ = collector_->slot(slot_base_ + tenants_.size(), "scheduler");
    if (sched_sinks_->trace != nullptr) {
      sched_running_track_ = sched_sinks_->trace->intern("sched.running");
      sched_queued_track_ = sched_sinks_->trace->intern("sched.queued");
      sched_shed_track_ = sched_sinks_->trace->intern("sched.shed");
      for (std::size_t p = 0; multipath() && p < sites_.size(); ++p) {
        sites_[p].phi_track = sched_sinks_->trace->intern(
            "path." + policy_.paths.option(static_cast<int>(p)).name + ".phi");
      }
    }
  }

  for (const auto& t : tenants_) {
    Tenant* tp = t.get();
    sim_.schedule_at(tp->spec.submit_at, [this, tp] { on_submit(*tp); });
  }
  for (const auto& b : policy_.link_brownouts) {
    // A brownout hits its target site only (path -1 hits every site); a
    // plain run's one site is the link every brownout hits. With a PathSet,
    // onset is also a health demerit — the monitor should suspect a browning
    // path before a tick's goodput shortfall confirms it.
    const auto set_factor = [this, target = b.path](double factor, bool onset) {
      for (int p = 0; p < static_cast<int>(sites_.size()); ++p) {
        if (multipath() && target != -1 && target != p) continue;
        sites_[p].link_factor = factor;
        if (multipath() && onset) health_->observe_fault(p, sim_.now());
      }
    };
    sim_.schedule_at(b.start, [set_factor, f = std::max(0.0, b.capacity_factor)] {
      set_factor(f, true);
    });
    sim_.schedule_at(b.start + b.duration, [set_factor] { set_factor(1.0, false); });
  }
  sim_.add_ticker(base_config_.tick, [this] { return master_tick(); });
  sim_.run_until(policy_.horizon + base_config_.tick);
  if (profiler_ != nullptr && pool_ != nullptr) {
    // Occupancy is wall-clock diagnostics: how evenly the atomic cursor
    // spread tick phases over the pool, read once before the workers join.
    for (int w = 0; w < pool_->jobs(); ++w) {
      profiler_->record_worker_ops(static_cast<std::size_t>(w), pool_->worker_ops(w));
    }
  }
  pool_.reset();  // join the workers before the single-threaded close-out

  // The horizon: anything still in flight is closed out honestly.
  for (const auto& tp : tenants_) {
    Tenant& t = *tp;
    switch (t.state) {
      case Tenant::State::kRunning:
        end_leg(t, false, sim_.now());
        fail(t, "still running at the scheduler horizon");
        break;
      case Tenant::State::kDeferred:
        --deferred_;
        [[fallthrough]];
      case Tenant::State::kQueued:
        fail(t, "horizon reached while waiting for capacity");
        break;
      case Tenant::State::kPending:
      case Tenant::State::kDone:
        break;
    }
  }
  queue_.clear();

  for (const auto& tp : tenants_) {
    Tenant& t = *tp;
    if (t.state != Tenant::State::kDone) continue;  // never submitted
    report_.total_bytes += t.out.result.bytes;
    report_.total_energy += t.out.result.end_system_energy;
    if (tariff_ && t.out.attempts > 0 && t.out.finished_at > t.out.started_at) {
      t.out.cost_usd = tariff_->cost(t.out.result.end_system_energy,
                                     tariff_start_ + t.out.started_at,
                                     t.out.finished_at - t.out.started_at);
      report_.total_cost_usd += t.out.cost_usd;
    }
    report_.makespan = std::max(report_.makespan, t.out.finished_at);
    SlaClassStats& cls = t.out.sla_class == SlaClass::kInteractive ? report_.interactive
                         : t.out.sla_class == SlaClass::kStandard  ? report_.standard
                                                                   : report_.scavenger;
    ++cls.submitted;
    if (t.out.rejected) {
      ++cls.rejected;
    } else if (t.out.failed) {
      ++cls.failed;
    } else {
      ++cls.completed;
      cls.sla_met += t.out.sla_met ? 1 : 0;
    }
    report_.jobs.push_back(std::move(t.out));
  }
  if (flightrec_ != nullptr && !report_.accounting_consistent()) {
    flightrec_->trigger("accounting invariant violated", sim_.now());
  }
  if (stream_ != nullptr) stream_->finish();
  return report_;
}

}  // namespace eadt::exp
