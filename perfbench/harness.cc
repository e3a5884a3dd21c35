#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

/// splitmix64 finaliser: a bijection on 64 bits, so distinct ids never
/// collide and a wrong id moves the digest sum.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
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
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * (values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

void IdDigest::Add(PointId id) {
  ++count;
  sum += Mix64(id);
}

IdDigest DigestOf(std::span<const PointId> ids) {
  IdDigest d;
  for (const PointId id : ids) d.Add(id);
  return d;
}

bool RacingReplyOk(const RacingExpect& expect,
                   const std::vector<std::uint8_t>& is_unstable,
                   std::span<const PointId> ids) {
  IdDigest stable;
  std::vector<PointId> unstable;
  for (const PointId id : ids) {
    if (id >= is_unstable.size()) return false;
    if (is_unstable[id]) {
      unstable.push_back(id);
    } else {
      stable.Add(id);
    }
  }
  if (!(stable == expect.stable)) return false;
  std::sort(unstable.begin(), unstable.end());
  if (std::adjacent_find(unstable.begin(), unstable.end()) != unstable.end())
    return false;
  return std::includes(expect.unstable.begin(), expect.unstable.end(),
                       unstable.begin(), unstable.end());
}

std::int64_t ReplayedSelfTimeNs(const Span& parent,
                                std::span<const Span> children) {
  std::int64_t self = parent.duration_ns();
  for (const Span& c : children) self -= c.duration_ns();
  return self;
}

HostProbe::HostProbe() {
  constexpr int kPoints = 100000;
  constexpr int kVertices = 16;
  std::uint64_t state = 1;
  for (int i = 0; i < kPoints; ++i) {
    xs_.push_back(static_cast<double>(Mix64(state++) >> 11) * 0x1.0p-53);
    ys_.push_back(static_cast<double>(Mix64(state++) >> 11) * 0x1.0p-53);
  }
  for (int k = 0; k < kVertices; ++k) {
    const double angle = 2.0 * std::numbers::pi * k / kVertices;
    const double radius = k % 2 == 0 ? 0.3 : 0.15;
    ring_x_.push_back(0.5 + radius * std::cos(angle));
    ring_y_.push_back(0.5 + radius * std::sin(angle));
  }
}

double HostProbe::RunMs() const {
  constexpr int kScans = 3;
  constexpr int kRoundTrips = 500;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t inside = 0;
  const std::size_t n = ring_x_.size();
  for (int scan = 0; scan < kScans; ++scan) {
    for (std::size_t i = 0; i < xs_.size(); ++i) {
      const double x = xs_[i], y = ys_[i];
      if (x < 0.2 || x > 0.8 || y < 0.2 || y > 0.8) continue;
      bool in = false;
      for (std::size_t a = 0, b = n - 1; a < n; b = a++) {
        if ((ring_y_[a] > y) != (ring_y_[b] > y) &&
            x < (ring_x_[b] - ring_x_[a]) * (y - ring_y_[a]) /
                        (ring_y_[b] - ring_y_[a]) +
                    ring_x_[a])
          in = !in;
      }
      inside += in;
    }
  }
  int there[2], back[2];
  if (pipe(there) != 0) throw std::runtime_error("pipe failed");
  if (pipe(back) != 0) throw std::runtime_error("pipe failed");
  std::thread echo([&] {
    char c;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (read(there[0], &c, 1) != 1 || write(back[1], &c, 1) != 1) break;
    }
  });
  char c = static_cast<char>(inside);
  for (int i = 0; i < kRoundTrips; ++i) {
    if (write(there[1], &c, 1) != 1 || read(back[0], &c, 1) != 1) break;
  }
  echo.join();
  for (const int fd : {there[0], there[1], back[0], back[1]}) close(fd);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + JsonEscape(key) + "\": ";
}

void JsonObject::Number(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
}

void JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

void JsonObject::String(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + JsonEscape(value) + "\"";
}

}  // namespace perfbench
