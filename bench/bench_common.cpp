#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "obs/obs.hpp"

namespace eadt::bench {

namespace {

std::string basename_of(std::string_view path) {
  const auto slash = path.find_last_of('/');
  return std::string(slash == std::string_view::npos ? path : path.substr(slash + 1));
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

void print_usage(std::ostream& os) {
  os << "usage: bench [--scale N] [--csv] [--plot STEM] [--jobs N] [--quick]\n"
        "             [--json PATH] [--no-json]\n"
        "  --scale N   divide the dataset size by N (default 1: paper scale)\n"
        "  --csv       emit CSV instead of aligned tables\n"
        "  --plot STEM write STEM.csv and a gnuplot script STEM.gp\n"
        "  --jobs N    sweep worker threads (default: EADT_JOBS, then all cores);\n"
        "              results are bit-identical for every N\n"
        "  --quick     smoke preset: raises --scale to at least 32\n"
        "  --json PATH write the perf record there instead of BENCH_<name>.json\n"
        "  --no-json   skip the BENCH_<name>.json perf record\n"
        "  --trace-out PATH    write a Chrome trace-event JSON of the sweep\n"
        "                      (open in ui.perfetto.dev or chrome://tracing)\n"
        "  --metrics-out PATH  write the metrics registry as JSON; the same\n"
        "                      snapshot is merged into the BENCH record\n"
        "  --decisions PATH    write the algorithm decision log as JSON\n"
        "  --metrics-listen P  serve GET /metrics (OpenMetrics) and /healthz on\n"
        "                      127.0.0.1:P while the bench runs (0 = ephemeral)\n"
        "  --force             overwrite existing --*-out files instead of\n"
        "                      refusing to clobber them\n";
}

std::optional<Options> try_parse_options(int argc, char** argv, std::string* error) {
  Options opt;
  if (argc > 0 && argv[0] != nullptr) opt.bench_name = basename_of(argv[0]);
  const auto fail = [&](std::string msg) -> std::optional<Options> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--no-json") {
      opt.json = false;
    } else if (arg == "--scale") {
      const auto v = value_of();
      if (!v) return fail("--scale requires a value");
      opt.scale = static_cast<unsigned>(std::max(1, std::atoi(v->c_str())));
    } else if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = static_cast<unsigned>(std::max(1, std::atoi(arg.data() + 8)));
    } else if (arg == "--jobs") {
      const auto v = value_of();
      if (!v) return fail("--jobs requires a value");
      opt.jobs = std::max(0, std::atoi(v->c_str()));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opt.jobs = std::max(0, std::atoi(arg.data() + 7));
    } else if (arg == "--plot") {
      const auto v = value_of();
      if (!v) return fail("--plot requires a value");
      opt.plot_stem = *v;
    } else if (arg.rfind("--plot=", 0) == 0) {
      opt.plot_stem = std::string(arg.substr(7));
    } else if (arg == "--json") {
      const auto v = value_of();
      if (!v) return fail("--json requires a value");
      opt.json_path = *v;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = std::string(arg.substr(7));
    } else if (arg == "--trace-out") {
      const auto v = value_of();
      if (!v) return fail("--trace-out requires a value");
      opt.trace_out = *v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = std::string(arg.substr(12));
    } else if (arg == "--metrics-out") {
      const auto v = value_of();
      if (!v) return fail("--metrics-out requires a value");
      opt.metrics_out = *v;
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      opt.metrics_out = std::string(arg.substr(14));
    } else if (arg == "--decisions") {
      const auto v = value_of();
      if (!v) return fail("--decisions requires a value");
      opt.decisions_out = *v;
    } else if (arg.rfind("--decisions=", 0) == 0) {
      opt.decisions_out = std::string(arg.substr(12));
    } else if (arg == "--metrics-listen") {
      const auto v = value_of();
      if (!v) return fail("--metrics-listen requires a port");
      opt.metrics_listen = std::atoi(v->c_str());
      if (opt.metrics_listen < 0 || opt.metrics_listen > 65535) {
        return fail("--metrics-listen port must be in [0, 65535]");
      }
    } else if (arg.rfind("--metrics-listen=", 0) == 0) {
      opt.metrics_listen = std::atoi(arg.data() + 17);
      if (opt.metrics_listen < 0 || opt.metrics_listen > 65535) {
        return fail("--metrics-listen port must be in [0, 65535]");
      }
    } else if (arg == "--force") {
      opt.force = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg.rfind("--", 0) == 0) {
      return fail("unknown option '" + std::string(arg) + "'");
    } else {
      return fail("unexpected argument '" + std::string(arg) + "'");
    }
  }
  if (opt.quick) opt.scale = std::max(opt.scale, 32u);
  return opt;
}

std::optional<std::string> overwrite_refusal(const Options& opt) {
  if (opt.force) return std::nullopt;
  const std::string* outs[] = {&opt.trace_out, &opt.metrics_out, &opt.decisions_out};
  for (const auto* path : outs) {
    if (path->empty()) continue;
    std::error_code ec;
    if (std::filesystem::exists(*path, ec)) {
      return "refusing to overwrite existing '" + *path +
             "' (pass --force to replace it)";
    }
  }
  return std::nullopt;
}

Options parse_options(int argc, char** argv) {
  std::string error;
  auto opt = try_parse_options(argc, argv, &error);
  if (!opt) {
    std::cerr << "error: " << error << "\n";
    print_usage(std::cerr);
    std::exit(2);
  }
  if (opt->help) {
    print_usage(std::cout);
    std::exit(0);
  }
  if (const auto refusal = overwrite_refusal(*opt)) {
    std::cerr << "error: " << *refusal << "\n";
    std::exit(2);
  }
  return *opt;
}

void print_header(const testbeds::Testbed& t, const Options& opt) {
  std::cout << "== " << t.env.name << " ==\n"
            << "  link: " << Table::num(to_gbps(t.env.path.bandwidth), 1) << " Gbps, RTT "
            << Table::num(t.env.path.rtt * 1000.0, 1) << " ms, TCP buffer "
            << to_mb(t.env.path.tcp_buffer) << " MB, BDP "
            << Table::num(static_cast<double>(t.env.bdp()) / 1e6, 1) << " MB\n"
            << "  dataset: " << t.recipe.name << ", "
            << Table::num(to_gb(t.recipe.total_bytes / opt.scale), 1) << " GB"
            << (opt.scale > 1 ? " (scaled 1/" + std::to_string(opt.scale) + ")" : "")
            << "\n  DTN servers per site: " << t.env.source.servers.size() << "\n\n";
}

void emit(const Table& table, const Options& opt) {
  if (opt.csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
  }
  std::cout << '\n';
}

void write_bench_record(const Options& opt, exp::BenchRecord record) {
  if (!opt.json) return;
  if (record.name.empty()) record.name = opt.bench_name;
  record.commit = exp::bench_commit_stamp();
  record.jobs = exp::resolve_jobs(opt.jobs);
  record.scale = opt.scale;
  const std::string path =
      opt.json_path.empty() ? "BENCH_" + record.name + ".json" : opt.json_path;
  std::ofstream os(path);
  exp::write_bench_json(os, record);
  std::cout << "wrote " << path << " (" << record.tasks.size() << " tasks, jobs="
            << record.jobs << ")\n";
}

std::unique_ptr<obs::ObsCollector> make_collector(const Options& opt) {
  // A scrape listener needs a registry to expose even when nothing is being
  // written to disk, so --metrics-listen alone is enough to attach one.
  return opt.observing() || opt.metrics_listen >= 0
             ? std::make_unique<obs::ObsCollector>()
             : nullptr;
}

void write_obs_outputs(const Options& opt, const obs::ObsCollector& collector) {
  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    collector.write_chrome_trace(os);
    std::cout << "wrote " << opt.trace_out << " (Chrome trace; open in ui.perfetto.dev)\n";
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream os(opt.metrics_out);
    collector.write_metrics_json(os);
    std::cout << "wrote " << opt.metrics_out << " (metrics registry)\n";
  }
  if (!opt.decisions_out.empty()) {
    std::ofstream os(opt.decisions_out);
    collector.write_decisions_json(os);
    std::cout << "wrote " << opt.decisions_out << " (algorithm decision log)\n";
  }
}

void print_histogram_percentiles(const Options& opt, const obs::ObsCollector& collector) {
  const auto metrics = collector.metrics().snapshot();
  Table table({"histogram", "count", "p50", "p90", "p99"});
  for (const auto& m : metrics) {
    if (m.kind != obs::MetricSnapshot::Kind::kHistogram || m.count == 0) continue;
    table.add_row({m.name, std::to_string(m.count),
                   Table::num(obs::histogram_quantile(m, 0.50), 1),
                   Table::num(obs::histogram_quantile(m, 0.90), 1),
                   Table::num(obs::histogram_quantile(m, 0.99), 1)});
  }
  if (table.rows() == 0) return;
  std::cout << "observed distributions (bucket-interpolated percentiles)\n";
  emit(table, opt);
}

namespace {

testbeds::Testbed scaled(testbeds::Testbed t, unsigned divisor) {
  t.recipe.total_bytes /= std::max(1u, divisor);
  return t;
}

/// How many of a sweep's tasks copied a bit-identical session run by an
/// earlier task instead of running their own (SweepTaskResult::shared_from).
void print_session_reuse(const std::vector<exp::SweepTaskResult>& tasks) {
  const auto reused = std::count_if(tasks.begin(), tasks.end(),
                                    [](const auto& t) { return t.shared_from.has_value(); });
  std::cout << reused << " of " << tasks.size() << " tasks reused an identical session\n";
}

}  // namespace

void run_concurrency_figure(const testbeds::Testbed& base, const Options& opt) {
  const auto t = scaled(base, opt.scale);
  print_header(base, opt);
  const auto dataset = t.make_dataset();

  const auto algorithms = exp::figure_algorithms();
  const auto levels = exp::figure_concurrency_levels();

  // Declarative grid: one task per unique run. GUC and GO do not take a
  // concurrency parameter, so they contribute one task each and their
  // outcome is replicated across the x-axis below.
  const auto collector = make_collector(opt);
  std::vector<exp::SweepTask> tasks;
  std::vector<std::pair<exp::Algorithm, int>> keys;
  const auto add_task = [&](exp::Algorithm a, int level) {
    exp::SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = a;
    task.concurrency = level;
    task.obs = collector.get();  // slot = submission index (one run() call)
    tasks.push_back(std::move(task));
    keys.emplace_back(a, level);
  };
  for (const auto a : algorithms) {
    for (const int level : levels) {
      if ((a == exp::Algorithm::kGuc || a == exp::Algorithm::kGo) &&
          level != levels.front()) {
        continue;
      }
      add_task(a, level);
    }
  }
  // Brute-force reference sweep for panel (c).
  for (const int level : exp::bf_concurrency_levels()) {
    add_task(exp::Algorithm::kBf, level);
  }

  const exp::SweepRunner runner(opt.jobs);
  const auto sweep_start = std::chrono::steady_clock::now();
  const auto results = runner.run(tasks);
  const double sweep_ms = elapsed_ms(sweep_start);

  std::map<std::pair<exp::Algorithm, int>, exp::RunOutcome> runs;
  std::map<int, exp::RunOutcome> bf;
  double best_bf_ratio = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [a, level] = keys[i];
    if (a == exp::Algorithm::kBf) {
      best_bf_ratio = std::max(best_bf_ratio, results[i].run.ratio());
      bf.emplace(level, results[i].run);
    } else {
      runs.emplace(std::make_pair(a, level), results[i].run);
    }
  }
  for (const auto a : {exp::Algorithm::kGuc, exp::Algorithm::kGo}) {
    for (const int level : levels) {
      if (level != levels.front()) {
        runs.emplace(std::make_pair(a, level), runs.at({a, levels.front()}));
      }
    }
  }

  auto header_row = [&] {
    std::vector<std::string> h{"concurrency"};
    for (const auto a : algorithms) h.emplace_back(exp::to_string(a));
    return h;
  };

  std::cout << "(a) Throughput (Mbps)\n";
  Table thr(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).throughput_mbps(), 0));
    }
    thr.add_row(std::move(row));
  }
  emit(thr, opt);

  std::cout << "(b) End-system energy (Joule)\n";
  Table en(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).energy(), 0));
    }
    en.add_row(std::move(row));
  }
  emit(en, opt);

  std::cout << "(c) Energy efficiency (throughput/energy, normalised to best BF)\n";
  Table eff(header_row());
  for (const int level : levels) {
    std::vector<std::string> row{std::to_string(level)};
    for (const auto a : algorithms) {
      row.push_back(Table::num(runs.at({a, level}).ratio() / best_bf_ratio, 3));
    }
    eff.add_row(std::move(row));
  }
  emit(eff, opt);

  std::cout << "(c) Brute-force sweep (normalised ratio by concurrency)\n";
  Table bft({"concurrency", "BF ratio"});
  for (const auto& [level, out] : bf) {
    bft.add_row({std::to_string(level), Table::num(out.ratio() / best_bf_ratio, 3)});
  }
  emit(bft, opt);

  if (!opt.plot_stem.empty()) {
    exp::SweepTable sweep;
    sweep.levels = levels;
    for (const auto& [key, out] : runs) sweep.outcomes[key.first][key.second] = out;
    {
      std::ofstream csv(opt.plot_stem + ".csv");
      exp::write_sweep_csv(csv, sweep);
    }
    {
      std::ofstream gp(opt.plot_stem + ".gp");
      exp::write_sweep_gnuplot(gp, sweep, opt.plot_stem + ".csv", opt.plot_stem);
    }
    std::cout << "wrote " << opt.plot_stem << ".csv and " << opt.plot_stem
              << ".gp (render: gnuplot " << opt.plot_stem << ".gp)\n\n";
  }

  // The figure's headline observations, recomputed from this run.
  const auto& htee12 = runs.at({exp::Algorithm::kHtee, 12});
  const auto& mine12 = runs.at({exp::Algorithm::kMinE, 12});
  const auto& sc12 = runs.at({exp::Algorithm::kSc, 12});
  const auto& promc12 = runs.at({exp::Algorithm::kProMc, 12});
  std::cout << "checks:\n"
            << "  HTEE chose concurrency " << htee12.chosen_concurrency
            << " (ratio = " << Table::num(100.0 * htee12.ratio() / best_bf_ratio, 1)
            << "% of best BF)\n"
            << "  MinE ratio = " << Table::num(100.0 * mine12.ratio() / best_bf_ratio, 1)
            << "% of best BF\n"
            << "  SC/MinE energy at cc=12: "
            << Table::num(100.0 * sc12.energy() / mine12.energy() - 100.0, 1)
            << "% extra for SC\n"
            << "  ProMC peak throughput: " << Table::num(promc12.throughput_mbps(), 0)
            << " Mbps\n\n";

  print_session_reuse(results);
  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = results;
  if (collector) {
    write_obs_outputs(opt, *collector);
    print_histogram_percentiles(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  write_bench_record(opt, std::move(record));
}

void run_sla_figure(const testbeds::Testbed& base, int promc_level, const Options& opt) {
  const auto t = scaled(base, opt.scale);
  print_header(base, opt);
  const auto dataset = t.make_dataset();

  const exp::SweepRunner runner(opt.jobs);
  const auto sweep_start = std::chrono::steady_clock::now();

  // The ProMC maximum calibrates every SLA target, so it runs first (a
  // one-task sweep); the SLA grid then fans out in parallel. Two run() calls
  // means auto slots would collide at 0, so every task gets an explicit one.
  const auto collector = make_collector(opt);
  std::vector<exp::SweepTask> promc_tasks(1);
  promc_tasks[0].testbed = t;
  promc_tasks[0].dataset = dataset;
  promc_tasks[0].algorithm = exp::Algorithm::kProMc;
  promc_tasks[0].concurrency = promc_level;
  promc_tasks[0].obs = collector.get();
  promc_tasks[0].obs_slot = 0;
  auto promc_results = runner.run(promc_tasks);
  const auto& promc = promc_results[0].run;
  const BitsPerSecond max_thr = promc.result.avg_throughput();
  std::cout << "ProMC maximum throughput (cc=" << promc_level
            << "): " << Table::num(to_mbps(max_thr), 0)
            << " Mbps, energy " << Table::num(promc.energy(), 0) << " J\n\n";

  std::vector<exp::SweepTask> sla_tasks;
  for (const double target : exp::sla_target_percents()) {
    exp::SweepTask task;
    task.kind = exp::SweepTask::Kind::kSla;
    task.testbed = t;
    task.dataset = dataset;
    task.concurrency = 12;
    task.target_percent = target;
    task.max_throughput = max_thr;
    task.obs = collector.get();
    task.obs_slot = 1 + sla_tasks.size();
    sla_tasks.push_back(std::move(task));
  }
  const auto sla_results = runner.run(sla_tasks);
  const double sweep_ms = elapsed_ms(sweep_start);

  Table table({"target %", "target Mbps", "achieved Mbps", "energy J",
               "vs ProMC energy %", "deviation %", "final cc", "rearranged"});
  for (const auto& r : sla_results) {
    const auto& out = r.sla;
    table.add_row({Table::num(out.target_percent, 0),
                   Table::num(to_mbps(out.target_throughput), 0),
                   Table::num(out.achieved_mbps(), 0), Table::num(out.energy(), 0),
                   Table::num(100.0 * out.energy() / promc.energy() - 100.0, 1),
                   Table::num(out.deviation_percent(), 1),
                   std::to_string(out.final_concurrency),
                   out.rearranged ? "yes" : "no"});
  }
  std::cout << "SLA transfers (Figure panels a-c as columns)\n";
  emit(table, opt);

  exp::BenchRecord record;
  record.total_wall_ms = sweep_ms;
  record.tasks = std::move(promc_results);
  for (const auto& r : sla_results) {
    record.tasks.push_back(r);
    record.tasks.back().index = record.tasks.size() - 1;
  }
  print_session_reuse(record.tasks);
  if (collector) {
    write_obs_outputs(opt, *collector);
    print_histogram_percentiles(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  write_bench_record(opt, std::move(record));
}

}  // namespace eadt::bench
