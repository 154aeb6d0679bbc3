#include "exp/runner.hpp"

#include <cmath>
#include <optional>

#include "obs/obs.hpp"

namespace eadt::exp {
namespace {

/// Planner decision sink for this run: the decisions member of the config's
/// sinks, when observability is on.
obs::DecisionLog* decision_log(const proto::SessionConfig& config) {
  return config.obs != nullptr ? config.obs->decisions : nullptr;
}

}  // namespace

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kGuc: return "GUC";
    case Algorithm::kGo: return "GO";
    case Algorithm::kSc: return "SC";
    case Algorithm::kMinE: return "MinE";
    case Algorithm::kProMc: return "ProMC";
    case Algorithm::kHtee: return "HTEE";
    case Algorithm::kBf: return "BF";
  }
  return "?";
}

std::vector<Algorithm> figure_algorithms() {
  return {Algorithm::kGuc, Algorithm::kGo,    Algorithm::kSc,
          Algorithm::kMinE, Algorithm::kProMc, Algorithm::kHtee};
}

PlannedRun plan_algorithm(Algorithm algorithm, const proto::Environment& env,
                          const proto::Dataset& dataset, int max_channels,
                          const proto::SessionConfig& config) {
  switch (algorithm) {
    case Algorithm::kGuc: return {baselines::plan_guc(env, dataset), 1};
    case Algorithm::kGo: return {baselines::plan_go(env, dataset), 2};
    case Algorithm::kSc:
      return {baselines::plan_single_chunk(env, dataset, max_channels), max_channels};
    case Algorithm::kMinE:
      return {core::plan_min_energy(env, dataset, max_channels, decision_log(config)),
              max_channels};
    case Algorithm::kProMc:
      return {baselines::plan_promc(env, dataset, max_channels), max_channels};
    case Algorithm::kHtee:
      return {core::plan_htee(env, dataset, max_channels, decision_log(config)),
              max_channels};
    case Algorithm::kBf:
      return {baselines::plan_brute_force(env, dataset, max_channels), max_channels};
  }
  return {};
}

RunOutcome execute_algorithm(Algorithm algorithm, const proto::Environment& env,
                             const proto::Dataset& dataset, int max_channels,
                             PlannedRun planned, const proto::SessionConfig& config,
                             proto::FaultPlan faults, const CheckpointSink& checkpoints) {
  RunOutcome out;
  out.algorithm = algorithm;
  out.concurrency = max_channels;
  out.chosen_concurrency = planned.chosen_concurrency;

  std::optional<core::HteeController> htee;
  if (algorithm == Algorithm::kHtee) htee.emplace(max_channels);
  proto::TransferSession session(env, dataset, std::move(planned.plan), config);
  session.set_fault_plan(std::move(faults));
  if (checkpoints) session.set_checkpoint_sink(checkpoints);
  out.result = session.run(htee ? &*htee : nullptr);
  if (htee) out.chosen_concurrency = htee->chosen_level();
  return out;
}

RunOutcome run_algorithm(Algorithm algorithm, const testbeds::Testbed& testbed,
                         const proto::Dataset& dataset, int max_channels,
                         proto::SessionConfig config, proto::FaultPlan faults,
                         const CheckpointSink& checkpoints) {
  return execute_algorithm(
      algorithm, testbed.env, dataset, max_channels,
      plan_algorithm(algorithm, testbed.env, dataset, max_channels, config), config,
      std::move(faults), checkpoints);
}

double SlaOutcome::deviation_percent() const {
  if (target_throughput <= 0.0) return 0.0;
  return 100.0 * std::fabs(result.avg_throughput() - target_throughput) /
         target_throughput;
}

double SlaOutcome::shortfall_percent() const {
  if (target_throughput <= 0.0) return 0.0;
  return 100.0 * (target_throughput - result.avg_throughput()) / target_throughput;
}

SlaOutcome run_slaee(const testbeds::Testbed& testbed, const proto::Dataset& dataset,
                     double target_percent, BitsPerSecond max_throughput,
                     int max_channels, proto::SessionConfig config,
                     proto::FaultPlan faults, const CheckpointSink& checkpoints) {
  SlaOutcome out;
  out.target_percent = target_percent;
  out.target_throughput = max_throughput * target_percent / 100.0;

  core::SlaeeController controller(out.target_throughput, max_channels);
  proto::TransferSession session(
      testbed.env, dataset,
      core::plan_slaee(testbed.env, dataset, max_channels, decision_log(config)), config);
  session.set_fault_plan(std::move(faults));
  if (checkpoints) session.set_checkpoint_sink(checkpoints);
  out.result = session.run(&controller);
  out.final_concurrency = controller.final_level();
  out.rearranged = controller.rearranged();
  return out;
}

std::vector<int> figure_concurrency_levels() { return {1, 2, 4, 6, 8, 10, 12}; }

std::vector<int> bf_concurrency_levels() {
  std::vector<int> v;
  for (int i = 1; i <= 20; ++i) v.push_back(i);
  return v;
}

std::vector<double> sla_target_percents() { return {95.0, 90.0, 80.0, 70.0, 50.0}; }

}  // namespace eadt::exp
