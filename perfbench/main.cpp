// perfbench: runs one benchmark workload and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the result line is still printed), 2 on a usage error or a crash (no
// result line).
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload <ribo30s|service-small|helix8-session>\n"
    "                 --seed <n> --seconds <s> --trace <0|1>\n"
    "                 [--trace-out <file>]\n";

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

bool parse_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return errno == 0;
}

// Strict parsing: every flag takes a value, unknown flags are errors.
bool parse(int argc, char** argv, perfbench::Options* opt, bool* help) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      *help = true;
      return true;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = parse_seed(value, &opt->seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, &opt->seconds) && opt->seconds > 0 &&
           opt->seconds <= 3600;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      opt->trace = value == "1";
    } else if (flag == "--trace-out") {
      opt->trace_out = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "perfbench: --workload missing\n");
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool help = false;
  if (!parse(argc, argv, &options, &help)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  perfbench::Report report;
  perfbench::Tracer tracer;
  try {
    if (options.workload == "ribo30s") {
      perfbench::run_ribo30s(options, report, tracer);
    } else if (options.workload == "service-small") {
      perfbench::run_service_small(options, report, tracer);
    } else if (options.workload == "helix8-session") {
      perfbench::run_helix8_session(options, report, tracer);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   options.workload.c_str());
      std::fputs(kUsage, stderr);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  const double attempted = static_cast<double>(report.attempted());
  const double ok = attempted - static_cast<double>(report.failed());
  report.set("ok_ratio", attempted > 0 ? ok / attempted : 0.0);
  report.set("error_ratio", attempted > 0 ? 1.0 - ok / attempted : 1.0);
  if (options.trace) {
    report.set("trace.spans", static_cast<double>(tracer.size()));
    if (!options.trace_out.empty() && !tracer.write_json(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 2;
    }
  }
  if (!report.print(options.trace)) return 2;
  return report.failed() == 0 ? 0 : 1;
}
