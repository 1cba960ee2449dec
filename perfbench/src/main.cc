// fdb_perfbench: runs one benchmark workload and writes its raw
// measurements as JSON. perfbench/run.py builds and runs it and turns the
// records into metrics.
//
//   fdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --out RAW.json [--epoch E] [--spans SPANS.json]
//
// One process is one epoch: a timed set-up, the reference answers, then
// the workload untraced for S seconds with the query thread pinned to the
// E-th allowed CPU. run.py runs an untraced run as a series of such
// processes, so every epoch starts from a fresh process. --trace 1 then
// re-enacts the workload through the individual layer calls under spans
// for another S seconds and writes the spans to SPANS.json.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

using perfbench::Workload;

int Usage(const std::string& why) {
  std::cerr << "fdb_perfbench: " << why
            << "\nusage: fdb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out RAW.json [--epoch E] [--spans SPANS.json]\n";
  return 2;
}

using Factory = std::function<std::unique_ptr<Workload>()>;
}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace",
                               "--out"}) {
    if (!args.count(required)) return Usage(std::string("missing ") + required);
  }
  const std::map<std::string, Factory> workloads = {
      {"star-materialize", perfbench::MakeStarWorkload},
      {"chain-groupby", perfbench::MakeChainWorkload},
      {"fplan-factorised", perfbench::MakeFplanWorkload}};
  const auto workload = workloads.find(args["--workload"]);
  if (workload == workloads.end()) {
    return Usage("unknown workload " + args["--workload"]);
  }
  const Factory& factory = workload->second;
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["--seconds"].c_str());
  const bool trace = args["--trace"] == "1";
  const int epoch = args.count("--epoch") ? std::atoi(args["--epoch"].c_str()) : 0;
  if (seconds <= 0) return Usage("bad --seconds");
  if (trace && !args.count("--spans")) return Usage("--trace 1 needs --spans");

  // Start the pool before the caller is pinned (Workload::Measure pins it
  // to one CPU), so pool threads keep the full mask.
  fdb::ThreadPool::Shared();

  perfbench::Output out;
  try {
    std::unique_ptr<Workload> w = factory();
    fdb::Timer setup;
    w->Setup(seed);
    out.setup_s = setup.Seconds();
    w->BuildReferences();
    w->Measure(seconds, epoch, &out);
    if (trace) {
      perfbench::Tracer tracer;
      w->MeasureTraced(seconds, &tracer, &out);
      std::ofstream spans(args["--spans"]);
      tracer.Write(spans);
      if (!spans) return Usage("cannot write " + args["--spans"]);
    }
  } catch (const std::exception& e) {
    std::cerr << "fdb_perfbench: " << args["--workload"] << " failed: "
              << e.what() << "\n";
    return 1;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  std::ofstream raw(args["--out"]);
  out.Write(raw);
  if (!raw) return Usage("cannot write " + args["--out"]);
  return 0;
}
