#include "common/bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "simd/isa.hpp"

namespace sfopt::bench {

namespace {

/// First "model name" line from /proc/cpuinfo, or "unknown" elsewhere.
std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.rfind("model name", 0) == 0) {
      auto value = line.substr(colon + 1);
      const auto first = value.find_first_not_of(" \t");
      return first == std::string::npos ? value : value.substr(first);
    }
  }
  return "unknown";
}

void appendEscaped(std::ostringstream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
      out << buf;
    } else {
      out << c;
    }
  }
}

void appendNumber(std::ostringstream& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out << buf;
}

}  // namespace

void BenchReport::add(std::string name, double value, std::string unit) {
  results.push_back({std::move(name), value, std::move(unit)});
}

void BenchReport::addMedian(std::string name, std::vector<double> samples, std::string unit) {
  const MedianSpread m = medianSpread(std::move(samples));
  results.push_back({std::move(name), m.median, std::move(unit), m.iqr});
}

MedianSpread medianSpread(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

bool BenchReport::writeJson(const std::string& path) const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"";
  appendEscaped(out, bench);
  out << "\",\n  \"repetitions\": " << repetitions << ",\n";
  out << "  \"host\": {\n    \"cpu\": \"";
  appendEscaped(out, cpuModel());
  out << "\",\n    \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n    \"detected_isa\": \"" << simd::isaName(simd::detectBestIsa())
      << "\",\n    \"supported_isas\": \"" << simd::supportedIsaNames() << "\"\n  },\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"";
    appendEscaped(out, r.name);
    out << "\", \"value\": ";
    appendNumber(out, r.value);
    out << ", \"unit\": \"";
    appendEscaped(out, r.unit);
    out << "\"";
    if (r.spread >= 0.0) {
      out << ", \"spread\": ";
      appendNumber(out, r.spread);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  file << out.str();
  return true;
}

double medianSeconds(int reps, const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::string extractJsonPath(std::vector<std::string>& args) {
  std::string path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json" && i + 1 < args.size()) {
      path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  return path;
}

}  // namespace sfopt::bench
