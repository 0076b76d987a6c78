// perfbench: the secview serving benchmark program (see README.md).
//
//   perfbench prepare --workload NAME --seed N --out DIR
//       Generates the workload's inputs from the seed and writes them,
//       with their expected answers, to DIR.
//   perfbench run --inputs DIR --seconds S --trace 0|1 [--trace-out FILE]
//       Serves the inputs and prints the result; --trace 1 is the traced
//       per-layer run and writes its Chrome trace to FILE.
//
// The last line of `run`'s output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit status: 0 correct, 1 wrong answers or a failed step, 2 usage,
// 3 refused (not a Release build, or sanitized).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"

namespace secview::perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench prepare --workload NAME --seed N --out DIR\n"
            << "       perfbench run --inputs DIR --seconds S --trace 0|1 "
               "[--trace-out FILE]\n";
  return 2;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string ResultLine(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc || std::string(argv[i]).rfind("--", 0) != 0) {
      return Usage("bad argument '" + std::string(argv[i]) + "'");
    }
    flags[argv[i]] = argv[i + 1];
  }
  auto flag = [&](const std::string& name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
  };

  if (command == "prepare") {
    const std::string* workload = flag("--workload");
    const std::string* seed = flag("--seed");
    const std::string* out = flag("--out");
    if (workload == nullptr || seed == nullptr || out == nullptr) {
      return Usage("prepare needs --workload, --seed and --out");
    }
    Result<Inputs> inputs = GenerateInputs(*workload, std::stoull(*seed));
    if (!inputs.ok()) {
      std::cerr << "perfbench: " << inputs.status().ToString() << "\n";
      return 1;
    }
    Status written = WriteInputs(*inputs, *out);
    if (!written.ok()) {
      std::cerr << "perfbench: " << written.ToString() << "\n";
      return 1;
    }
    std::cout << "# prepared " << *workload << " seed " << *seed << ": "
              << inputs->xml_text.size() << " bytes of XML, "
              << inputs->queries.size() << " distinct queries, "
              << inputs->expected.size() << " expected answers, "
              << inputs->stream.size() << " stream requests\n";
    return 0;
  }

  if (command != "run") return Usage("unknown command '" + command + "'");
  const std::string* dir = flag("--inputs");
  const std::string* seconds = flag("--seconds");
  const std::string* trace = flag("--trace");
  if (dir == nullptr || seconds == nullptr || trace == nullptr ||
      (*trace != "0" && *trace != "1")) {
    return Usage("run needs --inputs, --seconds and --trace 0|1");
  }
  std::cout << HostBlock() << "\n";
  const std::string refuse = RefuseReason();
  if (!refuse.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << refuse << "\n";
    return 3;
  }
  Result<Inputs> inputs = ReadInputs(*dir);
  if (!inputs.ok()) {
    std::cerr << "perfbench: " << inputs.status().ToString() << "\n";
    return 1;
  }
  const double run_seconds = std::stod(*seconds);
  Result<Report> report = Status::Internal("not run");
  if (*trace == "1") {
    const std::string* trace_out = flag("--trace-out");
    report =
        RunTraced(*inputs, run_seconds,
                  trace_out != nullptr ? *trace_out : *dir + "/trace.json");
  } else {
    report = RunServing(*inputs, run_seconds);
  }
  if (!report.ok()) {
    std::cerr << "perfbench: " << report.status().ToString() << "\n";
    return 1;
  }
  // Every metric is compared as a share of a baseline, so none may be 0.
  for (Metric& m : report->metrics) {
    if (!std::isfinite(m.value) || m.value == 0) {
      report->correct = false;
      report->notes.push_back("# failure: " + m.name + " is " +
                              (m.value == 0 ? "0" : "not finite"));
      if (!std::isfinite(m.value)) m.value = 0;
    }
  }
  for (const std::string& note : report->notes) std::cout << note << "\n";
  std::cout << ResultLine(*report) << std::endl;
  return report->correct ? 0 : 1;
}

}  // namespace
}  // namespace secview::perfbench

int main(int argc, char** argv) {
  return secview::perfbench::Main(argc, argv);
}
