// Shared declarations of the repository benchmark (tipbench).
//
// The benchmark drives the TIP engine only through its public surfaces:
// engine::Database and client::Connection embedded, and server::Server
// (the code tipd runs) through client::RemoteConnection. Every layer is
// measured from outside: by timing calls into the layer's public
// functions, and by reading the counters the engine exposes through SQL.
#ifndef TIP_PERFBENCH_BENCH_H_
#define TIP_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "client/connection.h"
#include "core/chronon.h"
#include "core/element.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "workload/medical.h"

namespace tipbench {

using namespace tip;

// ---------------------------------------------------------------------------
// Clock and calibration
// ---------------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times a fixed, engine-independent kernel of small allocations,
/// copies and sorts (the instruction mix the engine's row paths have),
/// in microseconds. Shared machines slow this mix down by up to 1.6x
/// for tens of seconds at a time; every timing the benchmark reports is
/// scaled by kCalibrationRefUs / (the kernel's time around it), so a
/// run measures the program rather than its neighbours. See run.py.
double RunCalibrationKernel();
constexpr double kCalibrationRefUs = 700.0;

/// Calibration samples of one thread, taken between operations.
class Calibrator {
 public:
  /// Runs the kernel if at least `interval_ns` passed since the last
  /// sample (always on the first call).
  void MaybeSample(int64_t interval_ns);
  void Sample();
  /// Reference time / kernel time around `t_ns` (median of the samples
  /// nearest in time); 1.0 when there are no samples.
  double Factor(int64_t t_ns) const;
  void Merge(const Calibrator& other);
  /// Median of every sample's kernel time, in microseconds.
  double MedianKernelUs() const;

 private:
  std::vector<std::pair<int64_t, double>> samples_;  // (mid time, us)
  int64_t last_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Operation classes and latency samples
// ---------------------------------------------------------------------------

enum class Op : int {
  kQ1,
  kQ2,
  kQ3,
  kWhatIf,
  kLookup,
  kWindow,
  kCommit,
  kCheckpoint,
};
constexpr int kOpCount = 8;
const char* OpName(Op op);

/// Latencies of one op class. A failed or refused op is a sample that
/// misses every percentile: it sorts above every completed one.
struct Samples {
  struct Sample {
    int64_t start_ns;
    double us;  // raw wall time; < 0 marks a failure
  };
  std::vector<Sample> all;
  uint64_t failed = 0;
  void Ok(int64_t start_ns, double us) { all.push_back({start_ns, us}); }
  void Fail(int64_t start_ns) {
    all.push_back({start_ns, -1});
    ++failed;
  }
  size_t attempted() const { return all.size(); }
  size_t completed() const { return all.size() - failed; }
};

/// Percentile `p` in [0, 1] of calibrated latencies (us); failures count
/// as `fail_us`. 0 when there are no samples.
double Percentile(const Samples& s, const Calibrator& cal, double p,
                  double fail_us);

/// Everything one load phase recorded.
struct PhaseResult {
  Samples ops[kOpCount];
  Calibrator cal;
  uint64_t rows_out = 0;        // result rows of every op
  uint64_t index_rows_out = 0;  // result rows of index-using ops
  uint64_t main_completed = 0;  // ... that completed (throughput)
  double main_wall_s = 0;      // wall time of the main mix
  void Merge(const PhaseResult& other);
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into layers
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same tracer, -1 for a root
  uint64_t op_id;  // shared by every span of one op
};

/// Per-thread span buffer, kept in memory until the run ends. A
/// disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int32_t Begin(const char* name, int32_t parent, uint64_t op_id) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, op_id});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent,
             uint64_t op_id)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// The data model: generated rows, statements and reference answers
// ---------------------------------------------------------------------------

/// A recorded statement, replayed on a second embedded database to time
/// the layers the wire hides.
struct Recorded {
  Op op;
  std::string sql;
  engine::Params params;
  Chronon now;
  bool main;      // sent by the main mix (else by a probe)
};

/// An order-independent digest of a result: the sum of per-row hashes.
using Digest = uint64_t;

class Model {
 public:
  static constexpr int64_t kRows = 3200;
  static constexpr int kWindows = 256;
  static constexpr int kWhatIfNows = 64;

  explicit Model(uint64_t seed);

  const workload::MedicalConfig& config() const { return config_; }
  const std::vector<workload::PrescriptionRow>& rows() const {
    return rows_;
  }
  /// The starting NOW of every session (later than every NOW-relative
  /// period start, so no row grounds inverted).
  Chronon start_now() const { return start_now_; }
  /// The NOW of remote reader session `i`.
  Chronon SessionNow(int i) const;
  const std::string& WindowLiteral(int i) const { return windows_[i]; }
  const GroundedElement& WindowElement(int i) const {
    return window_elements_[i];
  }
  Chronon WhatIfNow(int i) const { return whatif_nows_[i]; }
  std::string Patient(int i) const;
  int num_patients() const { return config_.num_patients; }

  // Reference answers, computed from the generated rows (plus the
  // writer rows committed so far) under the given NOW.
  /// Q2 rotates over kQ2Pairs drug pairs (drug i, drug i+1), so its
  /// cost does not hinge on how many rows one drug got under a seed.
  static constexpr int kQ2Pairs = 10;
  static std::string Drug(int i);
  Digest Q1Ref() const { return q1_ref_; }
  Digest Q2Ref(int pair) const { return q2_ref_[pair]; }
  Digest Q3Ref();  // includes writer rows
  Digest LookupRef(const std::string& patient) const;
  Digest WindowRef(int window, Chronon now);
  Digest WhatIfRef(Chronon now);

  /// Writer rows committed to (deleted from) rx join (leave) Q3's groups.
  void AddWriterRow(const std::string& patient);
  void ClearWriterRows();
  static constexpr const char* kWriterValid = "{[2005-01-01, 2005-01-31]}";
  static constexpr const char* kWriterDrug = "drugw";

  const datablade::TipTypes& tip_types() const { return tip_types_; }

 private:
  const std::vector<GroundedElement>& GroundedAt(Chronon now);

  workload::MedicalConfig config_;
  std::vector<workload::PrescriptionRow> rows_;
  Chronon start_now_;
  std::vector<std::string> windows_;
  std::vector<GroundedElement> window_elements_;
  std::vector<Chronon> whatif_nows_;
  Digest q1_ref_ = 0;
  Digest q2_ref_[kQ2Pairs] = {};
  std::map<std::string, Digest> patient_ref_;  // lookup rows minus tag
  std::mutex mu_;  // guards the memo tables below
  std::map<int64_t, std::vector<GroundedElement>> grounded_;
  std::map<std::pair<int, int64_t>, Digest> window_memo_;
  std::map<int64_t, Digest> whatif_memo_;
  std::vector<std::string> writer_rows_;
  std::optional<Digest> q3_memo_;
  std::unique_ptr<engine::Database> types_db_;
  datablade::TipTypes tip_types_{};
};

// Statement texts. Q1-Q3 are the paper's demonstration queries (§2).
extern const char* const kQ1Sql;
extern const char* const kQ2Sql;
extern const char* const kQ3Sql;
extern const char* const kWindowSql;
extern const char* const kWhatIfSql;
extern const char* const kLookupPreparedSql;
std::string InsertSql(const std::string& table);
std::string UpdateSql(const std::string& table);
std::string LookupLiteralSql(const std::string& patient, int64_t tag);

/// Digest of a client result (rows as sent).
Digest ResultDigest(const client::ResultSet& rs);
/// Digest of a lookup result without its leading tag column, and the
/// tags it carried (all must equal the tag sent).
Digest LookupDigest(const client::ResultSet& rs, int64_t* tag_mismatches,
                    int64_t tag);

// ---------------------------------------------------------------------------
// Run options and output
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
};

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What a workload run hands back to main.
struct RunOutput {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> labels;
  void Error(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

RunOutput RunWorkload(const Options& options);

double PeakRssMb();

}  // namespace tipbench

#endif  // TIP_PERFBENCH_BENCH_H_
