#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "simd/isa.hpp"

namespace jobbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a benchmark started
  // by a larger parent (the Python launcher) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void printHost(std::ostream& out) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  out << "host:     nproc " << sysconf(_SC_NPROCESSORS_ONLN) << ", cpu \"" << model
      << "\", simd " << sfopt::simd::isaName(sfopt::simd::activeIsa()) << " (supported: "
      << sfopt::simd::supportedIsaNames() << ")\n";
}

namespace {

std::string cell(double v, const char* fmt) {
  if (v < 0.0) return "-";
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

}  // namespace

void printLedger(std::ostream& out, const std::string& workload,
                 const std::vector<LedgerRow>& rows) {
  char line[256];
  std::snprintf(line, sizeof line, "ledger %-10s %-26s %12s %12s %12s %12s\n",
                workload.c_str(), "layer", "count", "busy_s", "wait_s", "self_s");
  out << line;
  for (const LedgerRow& r : rows) {
    std::snprintf(line, sizeof line, "ledger %-10s %-26s %12s %12s %12s %12s\n",
                  workload.c_str(), r.layer.c_str(), cell(r.count, "%.0f").c_str(),
                  cell(r.busy, "%.6f").c_str(), cell(r.wait, "%.6f").c_str(),
                  cell(r.self, "%.6f").c_str());
    out << line;
  }
}

std::string resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": " << num
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace jobbench
