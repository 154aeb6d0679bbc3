// Algorithm decision log: a structured record of every choice the paper's
// algorithms make at runtime, with the measurements that drove it.
//
// The paper's energy/throughput trade-off is enacted through discrete
// decisions — MinE partitioning a dataset and walking channels across
// chunks, HTEE probing concurrency levels and settling on the best
// throughput-per-joule, SLAEE jumping or re-arranging channels to track an
// SLA, the Supervisor descending its degradation ladder. Telemetry samples
// and trace counter tracks show the *consequences*; this log captures the
// decisions themselves, so `examples/explain_transfer` can render a "why did
// the algorithm do that" narrative and tests can assert on the reasoning,
// not just the outcome.
//
// One DecisionLog belongs to one session/task and is written single-threaded
// (ObsCollector hands each sweep task its own); merged exports iterate slots
// in index order, keeping parallel sweeps deterministic.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace eadt::obs {

enum class DecisionKind {
  kPlanPartition,       ///< MinE/tuner split the dataset into chunks
  kPlanChannelWalk,     ///< MinE moved a channel between chunks in planning
  kHteeProbe,           ///< HTEE measured one concurrency level
  kHteeChoose,          ///< HTEE ended its search and fixed the level
  kSlaeeJump,           ///< SLAEE jump-estimated a new concurrency level
  kSlaeeStep,           ///< SLAEE single-step increment toward the SLA
  kSlaeeRearrange,      ///< SLAEE re-arranged channels at the concurrency cap
  kSupervisorRetry,     ///< supervisor resumed an interrupted leg
  kSupervisorAbort,     ///< watchdog cut an attempt short; checkpoint taken
  kSupervisorDegrade,   ///< supervisor stepped down the degradation ladder
  kSupervisorGiveUp,    ///< supervisor exhausted the ladder
  kSupervisorDone,      ///< supervisor accepted a completed run
  kSchedulerAdmit,      ///< scheduler accepted a tenant job into the queue
  kSchedulerShed,       ///< admission control rejected a job (bounded queue)
  kSchedulerDefer,      ///< tariff-aware deferral pushed a start off-peak
  kSchedulerDispatch,   ///< scheduler started (or resumed) a tenant session
  kSchedulerPreempt,    ///< scheduler checkpointed a job to free capacity
  kSchedulerDone,       ///< scheduler retired a tenant job (either way)
  kPlanTune,            ///< planning-time tuner fixed a chunk's pipelining/parallelism
  kPathSuspect,         ///< health monitor's phi crossed the suspicion threshold
  kPathFailover,        ///< job migrated to the healthiest alternate path
  kHedgeLaunch,         ///< deadline projection missed; tail hedged on a second path
  kHedgeWin,            ///< one hedged leg finished; the loser was cancelled
};

[[nodiscard]] std::string_view to_string(DecisionKind kind) noexcept;

/// One decision. Numeric fields are 0 when not applicable to the kind.
struct Decision {
  Seconds at = 0.0;            ///< absolute transfer time of the decision
  DecisionKind kind = DecisionKind::kHteeProbe;
  const char* actor = "";      ///< "MinE", "HTEE", "SLAEE", "Supervisor" (static)
  std::string subject;         ///< short slug, e.g. "probe cc=3"
  std::string detail;          ///< human-readable reasoning fragment
  double measured_mbps = 0.0;  ///< throughput input to the decision
  double target_mbps = 0.0;    ///< SLA / plan target, when one exists
  double ratio = 0.0;          ///< throughput-per-joule input (HTEE)
  int level = 0;               ///< concurrency level under consideration
  int chosen = 0;              ///< concurrency level that resulted
};

class DecisionLog {
 public:
  void record(Decision d) { decisions_.push_back(std::move(d)); }

  [[nodiscard]] const std::vector<Decision>& decisions() const noexcept { return decisions_; }
  [[nodiscard]] bool empty() const noexcept { return decisions_.empty(); }

  /// `{"schema": "eadt-decisions-v1", "decisions": [...]}`.
  void write_json(std::ostream& os) const;

  /// Human-readable narrative, one decision per line, for explain_transfer.
  void write_narrative(std::ostream& os) const;

 private:
  std::vector<Decision> decisions_;
};

/// Append one decision as a JSON object (no trailing newline). `slot`/`task`
/// are emitted only when `task` is non-null — the merged multi-task form.
void write_decision_json(std::ostream& os, const Decision& d, std::size_t slot,
                         const std::string* task);

/// One narrative line (trailing newline included).
void write_decision_line(std::ostream& os, const Decision& d);

}  // namespace eadt::obs
