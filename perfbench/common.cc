// Clock calibration, percentiles, span self times and process stats.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace tipbench {

namespace {

// Per thread: client threads run the kernel concurrently.
thread_local volatile uint64_t g_sink = 0;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kQ1: return "q1";
    case Op::kQ2: return "q2";
    case Op::kQ3: return "q3";
    case Op::kWhatIf: return "whatif";
    case Op::kLookup: return "lookup";
    case Op::kWindow: return "window";
    case Op::kCommit: return "commit";
    case Op::kCheckpoint: return "checkpoint";
  }
  return "?";
}

double RunCalibrationKernel() {
  const int64_t start = NowNs();
  uint64_t x = 0x243F6A8885A308D3ull;
  uint64_t acc = 0;
  for (int i = 0; i < 40000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    void* p = std::malloc(48 + (x >> 59) * 16);
    std::memset(p, static_cast<int>(x), 16);
    acc += reinterpret_cast<uintptr_t>(p) & 0xff;
    std::free(p);
  }
  for (int i = 0; i < 6000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    std::vector<std::pair<int64_t, int64_t>> v;
    const int n = 1 + static_cast<int>(x >> 62);
    for (int k = 0; k < n; ++k) {
      v.emplace_back(static_cast<int64_t>(x >> (k * 7)), k);
    }
    std::sort(v.begin(), v.end());
    acc += static_cast<uint64_t>(v.front().first);
  }
  g_sink = g_sink + acc;
  return static_cast<double>(NowNs() - start) / 1000.0;
}

void Calibrator::Sample() {
  const int64_t start = NowNs();
  const double us = RunCalibrationKernel();
  samples_.emplace_back(start + static_cast<int64_t>(us * 500), us);
  last_ns_ = NowNs();
}

void Calibrator::MaybeSample(int64_t interval_ns) {
  if (samples_.empty() || NowNs() - last_ns_ >= interval_ns) Sample();
}

double Calibrator::Factor(int64_t t_ns) const {
  if (samples_.empty()) return 1.0;
  // The kNearest samples closest in time; samples are in time order
  // (Sample appends, Merge sorts).
  constexpr size_t kNearest = 5;
  auto hi = std::lower_bound(samples_.begin(), samples_.end(),
                             std::make_pair(t_ns, -1.0));
  auto lo = hi;
  std::vector<double> near;
  while (near.size() < kNearest &&
         (lo != samples_.begin() || hi != samples_.end())) {
    const bool take_hi =
        lo == samples_.begin() ||
        (hi != samples_.end() && hi->first - t_ns < t_ns - (lo - 1)->first);
    near.push_back(take_hi ? (hi++)->second : (--lo)->second);
  }
  return kCalibrationRefUs / Median(near);
}

void Calibrator::Merge(const Calibrator& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  std::sort(samples_.begin(), samples_.end());
}

double Calibrator::MedianKernelUs() const {
  std::vector<double> v;
  for (const auto& s : samples_) v.push_back(s.second);
  return Median(v);
}

double Percentile(const Samples& s, const Calibrator& cal, double p,
                  double fail_us) {
  if (s.all.empty()) return 0;
  std::vector<double> v;
  v.reserve(s.all.size());
  for (const Samples::Sample& x : s.all) {
    v.push_back(x.us < 0 ? fail_us : x.us * cal.Factor(x.start_ns));
  }
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(p * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

void PhaseResult::Merge(const PhaseResult& other) {
  for (int i = 0; i < kOpCount; ++i) {
    ops[i].all.insert(ops[i].all.end(), other.ops[i].all.begin(),
                      other.ops[i].all.end());
    ops[i].failed += other.ops[i].failed;
  }
  cal.Merge(other.cal);
  rows_out += other.rows_out;
  index_rows_out += other.index_rows_out;
  main_completed += other.main_completed;
  main_wall_s = std::max(main_wall_s, other.main_wall_s);
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    for (const auto& [s, e] : kids) {
      const int64_t from = std::max(s, cursor);
      const int64_t to = std::min(e, spans[i].end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace tipbench
