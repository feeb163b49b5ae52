// Per-layer metrics of a traced run.
//
// Counts are deltas of the engine's own counters (tip_plan_stats,
// tip_index_stats, tip_server_stats, tip_wal_stats) over the untraced
// half. Timings of layers the wire hides come from replaying the
// recorded statements on a second embedded Database built from the same
// seed — never on the served one — and from timing the public functions
// of the lower layers (IntervalIndex, Element algebra, the Element input
// function, wire codecs, Wal) on the workload's own data. Span-derived
// numbers come from the traced half.
//
// Which end-to-end metric each layer metric should move:
//   sql.*, plancache.*, planner.*        lookup_p50_us on tipd_browse
//                                        (hit ratio ~0 there, ~1 on
//                                        paper_analytics)
//   exec.<op>_us                         <op>_p50 of the same op
//   index.*                              q2_p50_ms, whatif_p50_ms on
//                                        paper_analytics; window_p50_us
//                                        on durable_mixed
//   core.*                               q2_p50_ms, q3_p50_ms on
//                                        paper_analytics
//   datablade.element_in_us              window_p50_us on tipd_browse
//   client.*                             lookup_p50_us on tipd_browse,
//                                        commit_p50_ms on durable_mixed
//   server.*                             lookup_p50_us on tipd_browse;
//                                        window_p99_us, commit_p99_ms,
//                                        ok_ratio on durable_mixed
//   storage.*                            commit_p50_ms, commit_p99_ms on
//                                        durable_mixed
//   browser.timeline_us                  whatif_p50_ms on paper_analytics
//                                        (TimelineView::Create, timed in
//                                        the traced what-if ops)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "bench.h"
#include "engine/index/interval_index.h"
#include "engine/sql/lexer.h"
#include "engine/sql/parser.h"
#include "engine/storage/wal.h"
#include "server/wire.h"

namespace tipbench {

namespace {

/// Timings of one measured quantity, calibrated like every other.
class Timings {
 public:
  explicit Timings(Calibrator* cal) : cal_(cal) {}
  template <typename F>
  void Time(F&& f) {
    cal_->MaybeSample(50'000'000);
    const int64_t start = NowNs();
    f();
    samples_.Ok(start, static_cast<double>(NowNs() - start) / 1000.0);
  }
  void Add(int64_t start_ns, double us) { samples_.Ok(start_ns, us); }
  double MedianUs() const { return Percentile(samples_, *cal_, 0.5, 0); }

 private:
  Calibrator* cal_;
  Samples samples_;
};

constexpr Op kReplayed[] = {Op::kQ1,     Op::kQ2,     Op::kQ3,
                            Op::kWhatIf, Op::kLookup, Op::kWindow};
constexpr Op kTraced[] = {Op::kQ1,     Op::kQ2,     Op::kQ3,   Op::kWhatIf,
                          Op::kLookup, Op::kWindow, Op::kCommit};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t Delta(const std::map<std::string, int64_t>& d, const char* name) {
  auto it = d.find(name);
  return it == d.end() ? 0 : it->second;
}

/// Calibrated median duration of the spans called `name` that are
/// children of ops of class `op`.
double SpanMedianUs(const std::vector<SpanRecord>& spans, Op op,
                    std::string_view name, const Calibrator& cal) {
  Samples s;
  for (const SpanRecord& r : spans) {
    if (r.parent < 0 || name != r.name ||
        std::string_view(spans[static_cast<size_t>(r.parent)].name) !=
            OpName(op)) {
      continue;
    }
    s.Ok(r.start_ns, static_cast<double>(r.end_ns - r.start_ns) / 1000.0);
  }
  return Percentile(s, cal, 0.5, 0);
}

volatile size_t g_sink = 0;  // keeps timed results observable

void WriteTrace(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<int64_t>& self) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%llu,\"parent\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld}%s\n",
                 s.name, static_cast<unsigned long long>(s.op_id), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

void AddLayerMetrics(const Options& options, Model* model,
                     const PhaseResult& untraced, const PhaseResult& traced,
                     const std::vector<Recorded>& recorded,
                     const std::vector<SpanRecord>& spans,
                     const std::map<std::string, int64_t>& delta, bool remote,
                     RunOutput* out) {
  auto add = [out](const std::string& name, double value, const char* unit) {
    out->metrics.push_back({name, value, unit});
  };
  Calibrator cal;

  // --- Replays on a second embedded database ------------------------------
  std::unique_ptr<client::Connection> conn = client::Connection::Open().value();
  engine::Database& db = conn->database();
  if (!workload::CreatePrescriptionTable(&db, "rx").ok() ||
      !workload::LoadPrescriptions(&db, conn->tip_types(), model->rows(), "rx")
           .ok() ||
      !db.Execute("CREATE INDEX rx_valid ON rx (valid) USING interval").ok()) {
    out->Error("replay database set-up failed");
    return;
  }
  const engine::TypeRegistry& types = db.types();
  Timings lex(&cal), parse(&cal), prepare(&cal), plan(&cal), encode(&cal),
      decode(&cal);
  std::map<Op, Timings> exec, full, wire;
  for (Op op : kReplayed) {
    exec.emplace(op, Timings(&cal));
    full.emplace(op, Timings(&cal));
    wire.emplace(op, Timings(&cal));
  }
  auto since_us = [](int64_t start) {
    return static_cast<double>(NowNs() - start) / 1000.0;
  };
  for (const Recorded& r : recorded) {
    double parse_us = 0;
    if (r.main) {
      lex.Time([&] { (void)engine::Lex(r.sql); });
      const int64_t t0 = NowNs();
      (void)engine::ParseStatement(r.sql);
      parse_us = since_us(t0);
      parse.Add(t0, parse_us);
    }
    // Prepare is a plan-cache lookup, and on a miss parse + plan.
    const int64_t p0 = NowNs();
    Result<std::shared_ptr<const engine::PreparedPlan>> prepared =
        db.Prepare(r.sql);
    const double prepare_us = since_us(p0);
    if (!prepared.ok()) {
      out->Error("replay of " + r.sql + " failed: " +
                 prepared.status().ToString());
      return;
    }
    if (r.main) {
      prepare.Add(p0, prepare_us);
      const int64_t e0 = NowNs();
      (void)db.Execute("EXPLAIN " + r.sql, r.params);
      plan.Add(e0, std::max(0.0, since_us(e0) - parse_us));
    }
    db.SetNowOverride(r.now);
    const int64_t x0 = NowNs();
    Result<engine::ResultSet> result = db.ExecutePrepared(**prepared, &r.params);
    const double exec_us = since_us(x0);
    if (!result.ok()) {
      out->Error("replay of " + r.sql + " failed: " +
                 result.status().ToString());
      return;
    }
    exec.at(r.op).Add(x0, exec_us);
    full.at(r.op).Add(x0, exec_us + prepare_us);

    // Wire codecs on the request and its result.
    const int64_t w0 = NowNs();
    const std::string request = server::wire::BuildExec(r.sql, r.params, types);
    const std::string header =
        server::wire::BuildResultHeader(*result, false, types);
    const std::string rows =
        server::wire::BuildRowsChunk(*result, 0, result->rows.size(), types);
    const double enc_us = since_us(w0);
    const int64_t d0 = NowNs();
    bool decoded = server::wire::ParseExec(request, types).ok();
    Result<server::wire::ResultHeader> h =
        server::wire::ParseResultHeader(header);
    if (h.ok()) {
      Result<std::vector<engine::TypeId>> cols =
          server::wire::ResolveColumnTypes(*h, types);
      decoded = decoded && cols.ok() &&
                server::wire::ParseRowsChunk(rows, *cols, types).ok();
    }
    const double dec_us = since_us(d0);
    if (!decoded) out->Error("wire round trip of a replayed result failed");
    wire.at(r.op).Add(w0, enc_us + dec_us);
    if (r.main) {
      encode.Add(w0, enc_us);
      decode.Add(d0, dec_us);
    }
  }
  db.SetNowOverride(model->start_now());

  add("sql.lex_us", lex.MedianUs(), "us");
  add("sql.parse_us", parse.MedianUs(), "us");
  const double hits = static_cast<double>(Delta(delta, "plan.hits"));
  const double misses = static_cast<double>(Delta(delta, "plan.misses"));
  // Counters cover every op of the untraced half, probes included.
  double ops = 0;
  for (const Samples& s : untraced.ops) ops += static_cast<double>(s.attempted());
  add("plancache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("plancache.evictions_per_op",
      Ratio(static_cast<double>(Delta(delta, "plan.evictions")), ops),
      "count");
  add("plancache.prepare_us", prepare.MedianUs(), "us");
  add("planner.plan_us", plan.MedianUs(), "us");
  for (Op op : kReplayed) {
    add(std::string("exec.") + OpName(op) + "_us", exec.at(op).MedianUs(),
        "us");
  }
  add("exec.rows_out_per_op",
      Ratio(static_cast<double>(untraced.rows_out), ops), "count");

  // --- Index ----------------------------------------------------------------
  const double probes = static_cast<double>(Delta(delta, "index.probes"));
  const double candidates =
      static_cast<double>(Delta(delta, "index.rows_returned"));
  add("index.probes_per_op", Ratio(probes, ops), "count");
  add("index.candidates_per_probe", Ratio(candidates, probes), "count");
  add("index.useful_ratio",
      Ratio(static_cast<double>(untraced.index_rows_out), candidates),
      "ratio");
  add("index.rebuilds_per_op",
      Ratio(static_cast<double>(Delta(delta, "index.absolute_builds") +
                                Delta(delta, "index.overlay_builds")),
            ops),
      "count");
  add("index.rows_scanned_per_op",
      Ratio(static_cast<double>(Delta(delta, "index.rows_scanned")), ops),
      "count");
  const TxContext tx(model->start_now());
  std::vector<GroundedElement> grounded;
  std::vector<engine::IntervalEntry> keys;
  for (size_t i = 0; i < model->rows().size(); ++i) {
    grounded.push_back(model->rows()[i].valid.Ground(tx).value());
    const GroundedPeriod extent = grounded.back().Extent();
    keys.push_back({extent.start().seconds(), extent.end().seconds(),
                    static_cast<engine::RowId>(i)});
  }
  const int reps = options.smoke ? 3 : 40;
  Timings build(&cal), probe(&cal);
  engine::IntervalIndex index;
  for (int i = 0; i < reps; ++i) {
    std::vector<engine::IntervalEntry> copy = keys;
    build.Time([&] { index = engine::IntervalIndex::Build(std::move(copy)); });
  }
  std::vector<engine::RowId> hits_out;
  for (int i = 0; i < Model::kWindows; ++i) {
    const GroundedPeriod w = model->WindowElement(i).Extent();
    hits_out.clear();
    probe.Time([&] {
      index.FindOverlapping(w.start().seconds(), w.end().seconds(), &hits_out);
    });
  }
  add("index.build_us", build.MedianUs(), "us");
  add("index.probe_us", probe.MedianUs(), "us");

  // --- Core Element algebra on the workload's Elements at its NOW ----------
  size_t periods = 0;
  for (const workload::PrescriptionRow& row : model->rows()) {
    periods += row.valid.size();
  }
  std::map<std::string, std::vector<size_t>> by_patient;
  for (size_t i = 0; i < model->rows().size(); ++i) {
    by_patient[model->rows()[i].patient].push_back(i);
  }
  std::vector<std::pair<size_t, size_t>> pairs, overlapping;
  size_t pair_periods = 0, union_periods = 0;
  for (const auto& entry : by_patient) {
    const std::vector<size_t>& rows = entry.second;
    for (size_t a = 0; a < rows.size(); ++a) {
      union_periods += grounded[rows[a]].size();
      for (size_t b = a + 1; b < rows.size(); ++b) {
        pairs.emplace_back(rows[a], rows[b]);
        if (grounded[rows[a]].Overlaps(grounded[rows[b]])) {
          overlapping.emplace_back(rows[a], rows[b]);
          pair_periods += grounded[rows[a]].size() + grounded[rows[b]].size();
        }
      }
    }
  }
  Timings ground_t(&cal), overlaps_t(&cal), intersect_t(&cal), union_t(&cal);
  size_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    ground_t.Time([&] {
      for (const workload::PrescriptionRow& row : model->rows()) {
        sink += row.valid.Ground(tx)->size();
      }
    });
    overlaps_t.Time([&] {
      for (const auto& [a, b] : pairs) {
        sink += grounded[a].Overlaps(grounded[b]) ? 1 : 0;
      }
    });
    intersect_t.Time([&] {
      for (const auto& [a, b] : overlapping) {
        sink += GroundedElement::Intersect(grounded[a], grounded[b]).size();
      }
    });
    union_t.Time([&] {
      for (const auto& entry : by_patient) {
        GroundedElement acc;
        for (size_t r : entry.second) {
          acc = GroundedElement::Union(acc, grounded[r]);
        }
        sink += acc.size();
      }
    });
  }
  add("core.ground_ns_per_period",
      Ratio(ground_t.MedianUs() * 1000, static_cast<double>(periods)), "ns");
  add("core.overlaps_ns",
      Ratio(overlaps_t.MedianUs() * 1000, static_cast<double>(pairs.size())),
      "ns");
  add("core.intersect_ns_per_period",
      Ratio(intersect_t.MedianUs() * 1000, static_cast<double>(pair_periods)),
      "ns");
  add("core.union_ns_per_period",
      Ratio(union_t.MedianUs() * 1000, static_cast<double>(union_periods)),
      "ns");

  // --- DataBlade input function ---------------------------------------------
  const engine::TypeInfo& element_type = types.Get(conn->tip_types().element);
  Timings element_in(&cal);
  for (int rep = 0; rep < (options.smoke ? 1 : 8); ++rep) {
    for (int i = 0; i < Model::kWindows; ++i) {
      const std::string& literal = model->WindowLiteral(i);
      element_in.Time([&] { sink += element_type.ops.parse(literal).ok(); });
    }
  }
  add("datablade.element_in_us", element_in.MedianUs(), "us");

  // --- Client and server ------------------------------------------------------
  const double lookup_remote_p50 =
      Percentile(untraced.ops[static_cast<int>(Op::kLookup)], untraced.cal,
                 0.5, 0);
  add("client.wire_overhead_us",
      remote ? lookup_remote_p50 - full.at(Op::kLookup).MedianUs() : 0, "us");
  // The Commit call of the workload's writes: remote where the writer
  // is remote, embedded where commits are probes.
  const double remote_commit =
      SpanMedianUs(spans, Op::kCommit, "client.commit", traced.cal);
  add("client.commit_call_us",
      remote_commit > 0
          ? remote_commit
          : SpanMedianUs(spans, Op::kCommit, "engine.commit", traced.cal),
      "us");
  add("server.wire_encode_us", encode.MedianUs(), "us");
  add("server.wire_decode_us", decode.MedianUs(), "us");
  add("server.bytes_out_per_op",
      Ratio(static_cast<double>(Delta(delta, "server.bytes_out")), ops), "B");
  const double gate_shared_us =
      Ratio(static_cast<double>(Delta(delta, "server.gate_wait_shared_ms")) *
                1000,
            ops);
  const double gate_exclusive_us = Ratio(
      static_cast<double>(Delta(delta, "server.gate_wait_exclusive_ms")) * 1000,
      ops);
  add("server.gate_wait_shared_us_per_op", gate_shared_us, "us");
  add("server.gate_wait_exclusive_us_per_op", gate_exclusive_us, "us");
  add("server.gate_busy",
      static_cast<double>(Delta(delta, "server.gate_busy_shared") +
                          Delta(delta, "server.gate_busy_exclusive")),
      "count");

  // --- Storage ----------------------------------------------------------------
  const double commits = static_cast<double>(Delta(delta, "wal.txns_committed"));
  const double records =
      static_cast<double>(Delta(delta, "wal.records_appended"));
  const double bytes = static_cast<double>(Delta(delta, "wal.bytes_written"));
  add("storage.wal.records_per_commit", Ratio(records, commits), "count");
  add("storage.wal.fsyncs_per_commit",
      Ratio(static_cast<double>(Delta(delta, "wal.fsyncs")), commits),
      "count");
  add("storage.wal.bytes_per_commit", Ratio(bytes, commits), "B");
  {
    // Wal::Append / Sync on a scratch log in the run's own directory,
    // with the record size the workload produced.
    const size_t record_size =
        records > 0 ? static_cast<size_t>(bytes / records) : 160;
    const std::string path = options.work_dir + "/scratch.wal";
    std::error_code ec;
    std::filesystem::remove(path, ec);
    engine::WalOpenReport report;
    Result<std::unique_ptr<engine::Wal>> wal =
        engine::Wal::Open(path, 1, nullptr, &report);
    Timings append(&cal), sync(&cal);
    if (wal.ok()) {
      const std::string body(record_size, 'r');
      for (int i = 0; i < (options.smoke ? 5 : 200); ++i) {
        append.Time([&] {
          (void)(*wal)->Append(engine::WalRecordKind::kInsert, body,
                               engine::WalMode::kAsync);
        });
        sync.Time([&] { (void)(*wal)->Sync(); });
      }
      wal->reset();
    } else {
      out->Error("scratch WAL: " + wal.status().ToString());
    }
    std::filesystem::remove(path, ec);
    add("storage.wal.append_us", append.MedianUs(), "us");
    add("storage.wal.sync_us", sync.MedianUs(), "us");
  }
  add("storage.checkpoint_ms",
      Percentile(untraced.ops[static_cast<int>(Op::kCheckpoint)],
                 untraced.cal, 0.5, 0) /
          1000,
      "ms");
  add("browser.timeline_us",
      SpanMedianUs(spans, Op::kWhatIf, "browser.timeline", traced.cal), "us");

  // --- Trace: overhead and the unattributed remainder per op class ----------
  // A layer call made directly (engine.*, browser.*, client.* other than
  // a remote execute) is attributed whole. A remote execute is attributed
  // what the hidden layers cost on replay: the embedded prepare +
  // execute, the wire codecs and the gate wait; the rest of it (socket,
  // scheduling, client decode) is the remainder, with the benchmark's
  // own work in the op.
  // The gate wait is averaged over the main mix, so only main-mix
  // classes are attributed it.
  const double gate_us_per_op = gate_shared_us + gate_exclusive_us;
  std::set<Op> main_classes;
  for (const Recorded& r : recorded) {
    if (r.main) main_classes.insert(r.op);
  }
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<Op, Samples> root_us, attributed_us;
  std::map<uint64_t, size_t> root_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) root_of[spans[i].op_id] = i;
  }
  std::map<size_t, double> attributed;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& root = spans[static_cast<size_t>(s.parent)];
    Op op = Op::kQ1;
    for (int i = 0; i < kOpCount; ++i) {
      if (std::string_view(root.name) == OpName(static_cast<Op>(i))) {
        op = static_cast<Op>(i);
      }
    }
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1000.0 *
                traced.cal.Factor(s.start_ns);
    if (std::string_view(s.name) == "client.execute" && exec.count(op) != 0) {
      us = full.at(op).MedianUs() + wire.at(op).MedianUs() +
           (main_classes.count(op) != 0 ? gate_us_per_op : 0);
    }
    attributed[static_cast<size_t>(s.parent)] += us;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    for (int k = 0; k < kOpCount; ++k) {
      if (std::string_view(spans[i].name) != OpName(static_cast<Op>(k))) {
        continue;
      }
      const Op op = static_cast<Op>(k);
      root_us[op].Ok(spans[i].start_ns,
                     static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                         1000.0);
      attributed_us[op].Ok(spans[i].start_ns, attributed[i]);
    }
  }
  Calibrator none;  // attributed times are calibrated already
  for (Op op : kTraced) {
    const int k = static_cast<int>(op);
    const double traced_p50 = Percentile(traced.ops[k], traced.cal, 0.5, 0);
    const double untraced_p50 =
        Percentile(untraced.ops[k], untraced.cal, 0.5, 0);
    const double root_p50 = Percentile(root_us[op], traced.cal, 0.5, 0);
    const double layers_p50 = Percentile(attributed_us[op], none, 0.5, 0);
    const std::string name = OpName(op);
    add("trace.overhead." + name + "_us", traced_p50 - untraced_p50, "us");
    add("trace.unattributed." + name + "_us", root_p50 - layers_p50, "us");
    add("trace.layer_sum." + name + "_ratio", Ratio(layers_p50, root_p50),
        "ratio");
  }
  WriteTrace(options.work_dir + "/trace-" + options.workload + "-" +
                 std::to_string(options.seed) + ".json",
             spans, self);
  out->labels["trace.spans"] = std::to_string(spans.size());
  out->labels["trace.file"] = "trace-" + options.workload + "-" +
                              std::to_string(options.seed) + ".json";
  g_sink = sink;
}

}  // namespace tipbench
