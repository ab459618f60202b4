// perfbench_driver — runs one benchmark workload and prints its result as
// the last line of standard output:
//   perfbench_driver --workload adapt|serve_unique|http_prefix --seed N
//                    --seconds S --trace 0|1 --cli PATH --work-dir DIR
//                    [--setup-only 1]
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// the benchmark's calls into each layer, writes them as a Chrome trace
// under DIR/traces/, and reports the per-layer metrics it measured instead.
// Raw wall-clock figures go to standard error as one JSON line.
// --setup-only 1 runs only the workload's set-up, writes one byte to
// standard output once it is done and exits: the parent's cold set-ups.
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>

#include "tensor/parallel.hpp"
#include "workloads.hpp"

namespace {

pb::Options parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("flags must start with --: " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "cli", "work-dir"}) {
    if (!args.contains(required)) throw std::invalid_argument(std::string("missing --") + required);
  }
  pb::Options o;
  o.exe = argv[0];
  o.workload = args["workload"];
  o.seed = std::stoull(args["seed"]);
  o.seconds = std::stod(args["seconds"]);
  o.trace = args["trace"] != "0";
  o.cli = args["cli"];
  o.work_dir = args["work-dir"];
  o.setup_only = args.contains("setup-only") && args["setup-only"] != "0";
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const pb::Options opt = parse(argc, argv);
    const int cpu = pb::pin_to_current_cpu();
    edgellm::parallel::set_num_threads(1);
    if (opt.setup_only) {
      if (opt.workload == "adapt") pb::setup_adapt(opt);
      else if (opt.workload == "serve_unique") pb::setup_serve_unique(opt);
      else throw std::invalid_argument("no child set-up for workload " + opt.workload);
      std::cout << "1" << std::flush;
      return 0;
    }
    if (opt.trace) pb::spans().enable();

    pb::LayerValues layers;
    pb::Result r;
    if (opt.workload == "adapt") r = pb::run_adapt(opt, layers);
    else if (opt.workload == "serve_unique") r = pb::run_serve_unique(opt, layers);
    else if (opt.workload == "http_prefix") r = pb::run_http_prefix(opt, layers);
    else throw std::invalid_argument("unknown workload " + opt.workload);

    r.detail("pinned_cpu", cpu);
    for (const std::string& f : r.check_failures) std::cerr << "CHECK FAILED: " << f << "\n";
    if (opt.trace) {
      // The traced run's own end-to-end values (their difference from an
      // untraced run is the tracing overhead), then the per-layer metrics.
      for (const auto& [name, value] : r.metrics) r.detail("traced." + name, value);
      r.metrics.clear();
      for (const auto& [name, value] : layers) r.metric(name, value);
      const std::string dir = opt.work_dir + "/traces";
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
      if (pb::spans().write_chrome_trace(path)) std::cerr << "wrote trace " << path << "\n";
    }
    std::cerr << "details " << r.details_json() << "\n";
    std::cout << r.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: error: " << e.what() << "\n";
    return 1;
  }
}
