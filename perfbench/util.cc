#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void MetricList::Add(std::string name, double value, std::string unit) {
  items_.push_back(Metric{std::move(name), value, std::move(unit)});
}

std::string MetricList::ToJson() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(items_[i].name) + ": {\"value\": " +
           FormatDouble(items_[i].value) +
           ", \"unit\": " + JsonQuote(items_[i].unit) + "}";
  }
  out += "}";
  return out;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t digest) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out += "\"";
  return out;
}

TempDir::TempDir(const std::string& parent) {
  std::error_code error;
  std::filesystem::create_directories(parent, error);
  std::string pattern = parent + "/netout_shards_XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (::mkdtemp(buffer.data()) == nullptr) {
    Die("mkdtemp under " + parent + ": " + std::strerror(errno));
  }
  path_ = buffer.data();
}

TempDir::~TempDir() {
  std::error_code error;
  std::filesystem::remove_all(path_, error);
}

void ParallelFor(std::size_t count, std::size_t threads,
                 const std::function<void(std::size_t thread,
                                          std::size_t index)>& body) {
  threads = std::max<std::size_t>(1, std::min(threads, count));
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::size_t thread) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      body(thread, i);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : pool) thread.join();
}

namespace {

void SetAffinityOfAllThreads(const cpu_set_t& mask) {
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const auto tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    ::sched_setaffinity(tid, sizeof(cpu_set_t), &mask);
  }
}

}  // namespace

OneCpu::OneCpu(std::size_t k) {
  CPU_ZERO(&saved_);
  ::sched_getaffinity(0, sizeof(saved_), &saved_);
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
  }
  if (allowed.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[k % allowed.size()], &one);
  SetAffinityOfAllThreads(one);
}

OneCpu::~OneCpu() { SetAffinityOfAllThreads(saved_); }

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
