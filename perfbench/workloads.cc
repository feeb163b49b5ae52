// The three workloads: set-up, the closed-loop traffic mixes, probes of
// the op classes a mix does not send, correctness and durability checks.
//
// All three run on the synthetic prescription table of
// workload::GeneratePrescriptions (3200 rows, rows/8+1 patients, 10
// drugs, 10% NOW-relative rows) with an interval index on `valid` and
// default session settings. Every client is a closed loop with zero
// think time: it sends its next op when the previous reply arrived, as
// the Browser and C-API callers do.
//
// paper_analytics — embedded, 1 client, round-robin over prepared Q1
//   (casts + arithmetic), Q2 (temporal self-join), Q3 (coalesced length
//   per patient) and a what-if op (moves NOW to a random date, re-runs a
//   prepared window browse and builds the Browser's TimelineView; see
//   WhatIfOp).
//   Why: the work falls in exec, planner plan choice, index join probes
//   and overlay rebuilds, and core/datablade grounding and aggregation.
//   Traffic: 4 statement texts against a plan cache of 64 (working set
//   far below capacity: hits); 10% NOW-relative rows; NOW moves on every
//   what-if op; read-only. Bypasses sql parsing, server and storage.
// tipd_browse — server::Server on loopback, 2 RemoteConnection sessions.
//   80% patient-history lookups sent as literal SQL whose texts never
//   repeat (working set >= 100x the plan-cache capacity: nearly every
//   lookup misses), 20% prepared time-window reads at a fixed
//   per-session NOW.
//   Why: the work falls in the sql front end, plan-cache misses, the
//   planner, the server wire and shared gate, and the client.
//   Traffic: NOW never moves; read-only; bypasses joins, NOW moves,
//   overlay rebuilds and the WAL.
// durable_mixed — the same server over a fresh durable directory with
//   `wal_mode sync` (every acknowledged commit has been fsynced). One
//   writer session loops BEGIN; INSERT one prescription; UPDATE one
//   existing row; COMMIT, with a deliberate ROLLBACK every
//   kRollbackEvery transactions; every kCheckpointEvery commits it
//   deletes its rows (so the table stays ~3200 rows) and takes a
//   CHECKPOINT. One reader session alternates prepared window reads and
//   prepared lookups.
//   Why: index and server gate are used differently — every commit
//   invalidates the index so the next read rebuilds it, and the writer
//   takes the gate exclusively — and storage.wal append/fsync and
//   checkpoint stalls are on the commit path.
//   Traffic: 2 prepared read texts (plan-cache hits); NOW fixed; about
//   half the ops write. One writer on purpose: two writers that both
//   BEGIN hit the documented "upgrade would deadlock" refusal at a
//   timing-dependent rate.
//
// Every workload also reports every end-to-end metric: op classes its
// mix does not send are measured by probe ops, run embedded on the
// served database in short bursts between segments of the mix
// (ProbeBurst), while no session runs. Embedded, each probe runs on the
// thread whose calibration samples scale it, which keeps these numbers
// steady. Probe commits go to a side table, so rx and its index stay
// read-only outside durable_mixed. Probes do not count towards
// throughput.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>

#include "bench.h"
#include "browser/timeline.h"
#include "client/remote_connection.h"
#include "common/rng.h"
#include "server/server.h"

namespace tipbench {

// Implemented in layers.cc and model.cc.
void AddLayerMetrics(const Options& options, Model* model,
                     const PhaseResult& untraced, const PhaseResult& traced,
                     const std::vector<Recorded>& recorded,
                     const std::vector<SpanRecord>& spans,
                     const std::map<std::string, int64_t>& counter_delta,
                     bool remote, RunOutput* out);
Digest TimelineDigest(const browser::TimelineView& view);

namespace {

namespace fs = std::filesystem;

constexpr int kCheckpointEvery = 32;
constexpr int kRollbackEvery = 16;
constexpr int kRemoteSessions = 2;

enum class Kind { kPaperAnalytics, kTipdBrowse, kDurableMixed };

Kind ParseKind(const std::string& name) {
  if (name == "paper_analytics") return Kind::kPaperAnalytics;
  if (name == "tipd_browse") return Kind::kTipdBrowse;
  if (name == "durable_mixed") return Kind::kDurableMixed;
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

/// One client session, embedded or remote, with its prepared handles.
class Session {
 public:
  explicit Session(client::Connection* local) : local_(local) {}
  explicit Session(client::RemoteConnection* remote) : remote_(remote) {}

  bool remote() const { return remote_ != nullptr; }

  Result<client::ResultSet> Run(const std::string& sql,
                                const engine::Params& params,
                                bool prepared) {
    if (!prepared) {
      return remote_ != nullptr ? remote_->Execute(sql, params)
                                : local_->Execute(sql);
    }
    if (remote_ != nullptr) {
      auto it = remote_stmts_.find(sql);
      if (it == remote_stmts_.end()) {
        it = remote_stmts_.emplace(sql, remote_->Prepare(sql)).first;
      }
      it->second.ClearBindings();
      for (const auto& [name, value] : params) it->second.BindDatum(name, value);
      return it->second.Execute();
    }
    auto it = local_stmts_.find(sql);
    if (it == local_stmts_.end()) {
      it = local_stmts_.emplace(sql, local_->Prepare(sql)).first;
    }
    it->second.ClearBindings();
    for (const auto& [name, value] : params) it->second.BindDatum(name, value);
    return it->second.Execute();
  }
  Status Begin() { return remote_ ? remote_->Begin() : local_->Begin(); }
  Status Commit() { return remote_ ? remote_->Commit() : local_->Commit(); }
  Status Rollback() {
    return remote_ ? remote_->Rollback() : local_->Rollback();
  }
  Status SetNow(Chronon now) {
    if (remote_ != nullptr) return remote_->SetNow(now);
    local_->SetNow(now);
    return Status::OK();
  }
  Status Checkpoint() {
    return remote_ ? remote_->Checkpoint() : local_->Checkpoint();
  }
  /// Span names: remote calls are client-layer calls; embedded ones go
  /// straight into the engine.
  const char* ExecSpan() const {
    return remote_ ? "client.execute" : "engine.execute";
  }
  const char* CommitSpan() const {
    return remote_ ? "client.commit" : "engine.commit";
  }

 private:
  client::Connection* local_ = nullptr;
  client::RemoteConnection* remote_ = nullptr;
  std::map<std::string, client::Statement> local_stmts_;
  std::map<std::string, client::RemoteStatement> remote_stmts_;
};

/// The system under test, as one set-up built it.
struct Fixture {
  std::unique_ptr<client::Connection> conn;  // owns the served Database
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<client::RemoteConnection>> remotes;
  std::string durable_dir;

  ~Fixture() {
    remotes.clear();
    if (server != nullptr) server->Shutdown();
  }
};

/// Mismatches are collected per op class and reported once each.
class Checker {
 public:
  explicit Checker(RunOutput* out) : out_(out) {}
  void Expect(bool ok, Op op, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (reported_[static_cast<int>(op)]++ == 0) {
      out_->Error(std::string(OpName(op)) + ": " + what);
    }
  }

 private:
  RunOutput* out_;
  std::mutex mu_;
  int reported_[kOpCount] = {};
};

/// Per-thread recording state of one load phase.
struct Worker {
  Worker(Model* m, Checker* c, bool trace, uint64_t op_base, uint64_t seed)
      : model(m), check(c), tracer(trace), next_op(op_base), rng(seed) {}
  Model* model;
  Checker* check;
  Tracer tracer;
  PhaseResult result;
  std::vector<Recorded> recorded;
  uint64_t next_op;
  Rng rng;
  uint64_t seq = 0;     // numbers literal lookups
  bool record = false;  // keep statements for replay
  bool main = false;    // ops belong to the main mix
  int q2_pair = 0;      // the next Q2 drug pair
  int64_t cal_interval_ns = 50'000'000;

  void Record(Op op, const std::string& sql, const engine::Params& params,
              Chronon now) {
    if (!record) return;
    // Replays of the long queries are capped lower to bound the run.
    const size_t cap = op == Op::kLookup || op == Op::kWindow ? 200 : 24;
    size_t same = 0;
    for (const Recorded& r : recorded) same += r.op == op ? 1 : 0;
    if (same < cap) recorded.push_back({op, sql, params, now, main});
  }
  /// Times `body` as one op of class `op`; `body` returns false when the
  /// op failed. Calibration samples are taken between ops.
  void Time(Op op, const std::function<bool(int32_t root)>& body) {
    result.cal.MaybeSample(cal_interval_ns);
    const uint64_t id = next_op++;
    const int64_t start = NowNs();
    bool ok;
    {
      ScopedSpan root(&tracer, OpName(op), -1, id);
      ok = body(root.id());
    }
    const double us = static_cast<double>(NowNs() - start) / 1000.0;
    Samples& s = result.ops[static_cast<int>(op)];
    if (ok) {
      s.Ok(start, us);
    } else {
      s.Fail(start);
    }
    if (main && ok) ++result.main_completed;
  }
};

// ---------------------------------------------------------------------------
// Ops. Each checks its result against the model after the reply (the
// check is outside the op's latency).
// ---------------------------------------------------------------------------

void QueryOp(Worker* w, Session* s, Op op, Chronon now) {
  const char* sql = op == Op::kQ1 ? kQ1Sql : op == Op::kQ2 ? kQ2Sql : kQ3Sql;
  engine::Params params;
  if (op == Op::kQ1) params["w"] = engine::Datum::Int(1200);
  const int pair = w->q2_pair;
  if (op == Op::kQ2) {
    w->q2_pair = (pair + 1) % Model::kQ2Pairs;
    params["d1"] = engine::Datum::String(Model::Drug(pair));
    params["d2"] = engine::Datum::String(
        Model::Drug((pair + 1) % w->model->config().num_drugs));
  }
  std::optional<Result<client::ResultSet>> rs;
  w->Time(op, [&](int32_t root) {
    ScopedSpan span(&w->tracer, s->ExecSpan(), root, w->next_op - 1);
    rs.emplace(s->Run(sql, params, true));
    return rs->ok();
  });
  w->Record(op, sql, params, now);
  if (!rs->ok()) return;
  const Digest want = op == Op::kQ1   ? w->model->Q1Ref()
                      : op == Op::kQ2 ? w->model->Q2Ref(pair)
                                      : w->model->Q3Ref();
  w->check->Expect(ResultDigest(**rs) == want, op,
                   "result differs from the reference");
  w->result.rows_out += (*rs)->row_count();
  if (op == Op::kQ2) w->result.index_rows_out += (*rs)->row_count();
}

void LookupOp(Worker* w, Session* s, Rng* rng, Chronon now, int64_t tag,
              bool prepared) {
  const std::string patient = w->model->Patient(
      static_cast<int>(rng->Uniform(0, w->model->num_patients() - 1)));
  engine::Params params;
  std::string sql;
  if (prepared) {
    sql = kLookupPreparedSql;
    params["p"] = engine::Datum::String(patient);
    tag = -1;
  } else {
    sql = LookupLiteralSql(patient, tag);
  }
  std::optional<Result<client::ResultSet>> rs;
  w->Time(Op::kLookup, [&](int32_t root) {
    ScopedSpan span(&w->tracer, s->ExecSpan(), root, w->next_op - 1);
    rs.emplace(s->Run(sql, params, prepared));
    return rs->ok();
  });
  w->Record(Op::kLookup, sql, params, now);
  if (!rs->ok()) return;
  int64_t bad_tags = 0;
  const Digest got = LookupDigest(**rs, &bad_tags, tag);
  w->check->Expect(got == w->model->LookupRef(patient) && bad_tags == 0,
                   Op::kLookup, "rows of " + patient + " differ");
  w->result.rows_out += (*rs)->row_count();
}

void WindowOp(Worker* w, Session* s, Rng* rng, Chronon now) {
  const int window =
      static_cast<int>(rng->Uniform(0, Model::kWindows - 1));
  engine::Params params;
  params["w"] = engine::Datum::String(w->model->WindowLiteral(window));
  std::optional<Result<client::ResultSet>> rs;
  w->Time(Op::kWindow, [&](int32_t root) {
    ScopedSpan span(&w->tracer, s->ExecSpan(), root, w->next_op - 1);
    rs.emplace(s->Run(kWindowSql, params, true));
    return rs->ok();
  });
  w->Record(Op::kWindow, kWindowSql, params, now);
  if (!rs->ok()) return;
  w->check->Expect(ResultDigest(**rs) == w->model->WindowRef(window, now),
                   Op::kWindow,
                   "window " + w->model->WindowLiteral(window) + " differs");
  w->result.rows_out += (*rs)->row_count();
  w->result.index_rows_out += (*rs)->row_count();
}

/// The Browser's what-if step, embedded: move NOW, run the prepared
/// browse in a transaction (one pinned NOW), build the TimelineView,
/// commit, move NOW back. These are the steps of browser::WhatIfSession
/// minus its per-evaluation worker thread: with the thread, the op's
/// calibrated median moved ~25% from run to run on a 4-CPU VM, several
/// times the spread of Q1 and Q3.
void WhatIfOp(Worker* w, Session* s, client::Connection* conn, Rng* rng,
              Chronon home) {
  const Chronon now = w->model->WhatIfNow(
      static_cast<int>(rng->Uniform(0, Model::kWhatIfNows - 1)));
  std::optional<Result<browser::TimelineView>> view;
  w->Time(Op::kWhatIf, [&](int32_t root) {
    const uint64_t id = w->next_op - 1;
    {
      ScopedSpan span(&w->tracer, "engine.set_now", root, id);
      conn->SetNow(now);
    }
    {
      ScopedSpan span(&w->tracer, "engine.begin", root, id);
      if (!s->Begin().ok()) return false;
    }
    std::optional<Result<client::ResultSet>> rs;
    {
      ScopedSpan span(&w->tracer, "engine.execute", root, id);
      rs.emplace(s->Run(kWhatIfSql, {}, true));
    }
    if (rs->ok()) {
      ScopedSpan span(&w->tracer, "browser.timeline", root, id);
      view.emplace(browser::TimelineView::Create(
          **rs, "valid", conn->database().CurrentTx()));
    }
    bool ok = rs->ok() && view->ok();
    {
      ScopedSpan span(&w->tracer, "engine.commit", root, id);
      ok = (ok ? s->Commit() : s->Rollback()).ok() && ok;
    }
    ScopedSpan span(&w->tracer, "engine.set_now", root, id);
    conn->SetNow(home);
    return ok;
  });
  w->Record(Op::kWhatIf, kWhatIfSql, {}, now);
  if (!view.has_value() || !view->ok()) return;
  w->check->Expect(TimelineDigest(**view) == w->model->WhatIfRef(now),
                   Op::kWhatIf, "timeline at NOW " + now.ToString() +
                                    " differs");
  w->result.rows_out += (*view)->rows().size();
  w->result.index_rows_out += (*view)->rows().size();
}

/// Writer bookkeeping: the table written, and what every acknowledged
/// transaction left there.
struct WriterState {
  std::string table;
  int64_t next = 0;
  std::vector<std::string> committed;  // since the last delete
  std::map<std::string, int64_t> expected;  // patient -> dosage
  std::vector<std::string> rolled_back;
  std::set<std::string> uncertain;  // outcome unknown after an error
  uint64_t txns = 0;
  uint64_t acked = 0;  // acknowledged commits
};

engine::Params InsertParams(const Model& m, const std::string& patient,
                            int64_t dosage) {
  const datablade::TipTypes& t = m.tip_types();
  engine::Params p;
  p["doctor"] = engine::Datum::String("doctorw");
  p["patient"] = engine::Datum::String(patient);
  p["dob"] = datablade::MakeChronon(t, Chronon::Parse("1970-01-01").value());
  p["drug"] = engine::Datum::String(Model::kWriterDrug);
  p["dosage"] = engine::Datum::Int(dosage);
  p["frequency"] = datablade::MakeSpan(t, Span::FromSeconds(8 * 3600));
  p["valid"] =
      datablade::MakeElement(t, Element::Parse(Model::kWriterValid).value());
  return p;
}

/// One write transaction: insert a new writer row, update an existing
/// one, commit — or roll back every kRollbackEvery-th transaction. A
/// deliberate rollback is not a commit sample.
void CommitOp(Worker* w, Session* s, Rng* rng, WriterState* ws) {
  const std::string patient = "w" + std::to_string(ws->next++);
  const int64_t dosage = rng->Uniform(1, 4);
  const std::string target =
      ws->committed.empty() || rng->NextBool(0.1)
          ? patient
          : ws->committed[static_cast<size_t>(rng->Uniform(
                0, static_cast<int64_t>(ws->committed.size()) - 1))];
  const int64_t new_dosage = rng->Uniform(5, 1000000);
  engine::Params update;
  update["dosage"] = engine::Datum::Int(new_dosage);
  update["patient"] = engine::Datum::String(target);
  const bool rollback = ++ws->txns % kRollbackEvery == 0;

  // Runs the transaction; true when every statement succeeded and the
  // transaction ended as intended.
  auto txn = [&](Tracer* tr, int32_t root, uint64_t id) {
    const bool r = s->remote();
    {
      ScopedSpan span(tr, r ? "client.begin" : "engine.begin", root, id);
      if (!s->Begin().ok()) return false;
    }
    bool ok = true;
    {
      ScopedSpan span(tr, s->ExecSpan(), root, id);
      ok = s->Run(InsertSql(ws->table),
                  InsertParams(*w->model, patient, dosage), true)
               .ok();
    }
    if (ok) {
      ScopedSpan span(tr, s->ExecSpan(), root, id);
      Result<client::ResultSet> u = s->Run(UpdateSql(ws->table), update, true);
      ok = u.ok() && u->affected_rows() == 1;
    }
    if (rollback || !ok) {
      ScopedSpan span(tr, r ? "client.rollback" : "engine.rollback", root,
                      id);
      return s->Rollback().ok() && ok;
    }
    ScopedSpan span(tr, s->CommitSpan(), root, id);
    return s->Commit().ok();
  };

  bool ok = false;
  if (rollback) {
    Tracer off(false);
    ok = txn(&off, -1, 0);
  } else {
    w->Time(Op::kCommit, [&](int32_t root) {
      ok = txn(&w->tracer, root, w->next_op - 1);
      return ok;
    });
  }
  if (!ok) {
    ws->uncertain.insert(patient);
    ws->uncertain.insert(target);
  } else if (rollback) {
    ws->rolled_back.push_back(patient);
  } else {
    ++ws->acked;
    ws->committed.push_back(patient);
    ws->expected[patient] = dosage;
    ws->expected[target] = new_dosage;
    if (ws->table == "rx") w->model->AddWriterRow(patient);
  }
}

/// After every kCheckpointEvery acknowledged commits the writer deletes
/// its rows, so the table — and every scan of it — keeps the same size
/// however fast the machine commits; the durable workload then takes a
/// CHECKPOINT, so several checkpoint cycles complete in every run.
void MaybeCycleWriter(Worker* w, Session* s, WriterState* ws,
                      bool checkpoint) {
  if (ws->committed.size() < static_cast<size_t>(kCheckpointEvery)) return;
  Result<client::ResultSet> deleted =
      s->Run("DELETE FROM " + ws->table + " WHERE drug = '" +
                 Model::kWriterDrug + "'",
             {}, false);
  if (deleted.ok()) {
    ws->committed.clear();
    ws->expected.clear();
    if (ws->table == "rx") w->model->ClearWriterRows();
  } else {
    w->check->Expect(false, Op::kCommit,
                     "deleting writer rows failed: " +
                         deleted.status().ToString());
  }
  if (!checkpoint) return;
  w->Time(Op::kCheckpoint, [&](int32_t root) {
    ScopedSpan span(&w->tracer, "client.checkpoint", root, w->next_op - 1);
    return s->Checkpoint().ok();
  });
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The table the writes of a workload go to: the durable workload
/// writes rx itself; the in-memory ones write an unindexed copy of it,
/// so their probe commits cost what a write to rx costs but leave rx
/// and its index untouched.
const char* WriterTable(Kind kind) {
  return kind == Kind::kDurableMixed ? "rx" : "rx_probe";
}

Result<std::unique_ptr<Fixture>> SetUp(Kind kind, const Model& model,
                                       const std::string& dir) {
  auto f = std::make_unique<Fixture>();
  if (kind == Kind::kDurableMixed) {
    f->durable_dir = dir;
    std::error_code ec;
    fs::remove_all(dir, ec);
    TIP_ASSIGN_OR_RETURN(f->conn, client::Connection::OpenDurable(dir));
  } else {
    TIP_ASSIGN_OR_RETURN(f->conn, client::Connection::Open());
  }
  engine::Database* db = &f->conn->database();
  TIP_RETURN_IF_ERROR(workload::CreatePrescriptionTable(db, "rx"));
  TIP_RETURN_IF_ERROR(workload::LoadPrescriptions(
      db, f->conn->tip_types(), workload::GeneratePrescriptions(model.config()),
      "rx"));
  TIP_RETURN_IF_ERROR(
      f->conn->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
          .status());
  if (kind != Kind::kDurableMixed) {
    TIP_RETURN_IF_ERROR(workload::CreatePrescriptionTable(db, "rx_probe"));
    TIP_RETURN_IF_ERROR(workload::LoadPrescriptions(
        db, f->conn->tip_types(), model.rows(), "rx_probe"));
  }
  f->conn->SetNow(model.start_now());
  if (kind == Kind::kPaperAnalytics) return f;
  if (kind == Kind::kDurableMixed) {
    // The bulk load bypasses the log; the checkpoint makes it durable.
    TIP_RETURN_IF_ERROR(f->conn->Checkpoint());
    TIP_RETURN_IF_ERROR(f->conn->SetWalMode(engine::WalMode::kSync));
  }
  TIP_ASSIGN_OR_RETURN(f->server, server::Server::Start(db, {}));
  for (int i = 0; i < kRemoteSessions; ++i) {
    TIP_ASSIGN_OR_RETURN(
        std::unique_ptr<client::RemoteConnection> r,
        client::RemoteConnection::Connect("127.0.0.1", f->server->port()));
    TIP_RETURN_IF_ERROR(r->SetNow(kind == Kind::kTipdBrowse
                                      ? model.SessionNow(i)
                                      : model.start_now()));
    f->remotes.push_back(std::move(r));
  }
  return f;
}

// ---------------------------------------------------------------------------
// Counters the engine exposes through SQL
// ---------------------------------------------------------------------------

const char* const kCounterNames[] = {
    "plan.hits",
    "plan.misses",
    "plan.evictions",
    "index.probes",
    "index.rows_returned",
    "index.absolute_builds",
    "index.overlay_builds",
    "index.rows_scanned",
    "server.bytes_out",
    "server.gate_wait_shared_ms",
    "server.gate_wait_exclusive_ms",
    "server.gate_busy_shared",
    "server.gate_busy_exclusive",
    "wal.records_appended",
    "wal.bytes_written",
    "wal.fsyncs",
    "wal.txns_committed",
};

const char* const kCounterSql =
    "SELECT tip_plan_stats('hits'), tip_plan_stats('misses'), "
    "tip_plan_stats('evictions'), "
    "tip_index_stats('rx', 'rx_valid', 'probes'), "
    "tip_index_stats('rx', 'rx_valid', 'rows_returned'), "
    "tip_index_stats('rx', 'rx_valid', 'absolute_builds'), "
    "tip_index_stats('rx', 'rx_valid', 'overlay_builds'), "
    "tip_index_stats('rx', 'rx_valid', 'rows_scanned'), "
    "tip_server_stats('bytes_out'), tip_server_stats('gate_wait_shared_ms'), "
    "tip_server_stats('gate_wait_exclusive_ms'), "
    "tip_server_stats('gate_busy_shared'), "
    "tip_server_stats('gate_busy_exclusive'), "
    "tip_wal_stats('records_appended'), tip_wal_stats('bytes_written'), "
    "tip_wal_stats('fsyncs'), tip_wal_stats('txns_committed')";

/// Reads every counter; called only while no session runs a statement.
std::map<std::string, int64_t> ReadCounters(client::Connection* conn,
                                            RunOutput* out) {
  std::map<std::string, int64_t> c;
  Result<client::ResultSet> rs = conn->Execute(kCounterSql);
  if (!rs.ok() || rs->row_count() != 1) {
    out->Error("counter query failed: " + rs.status().ToString());
    return c;
  }
  for (size_t i = 0; i < rs->column_count(); ++i) {
    c[kCounterNames[i]] = rs->GetInt(0, i);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Phases: the main mix with probes interleaved
// ---------------------------------------------------------------------------

struct Phase {
  Kind kind;
  bool smoke;
  uint64_t seed;
  Model* model;
  Fixture* fixture;
  Checker* checker;
  RunOutput* out;
  WriterState* writer;
  bool traced;
  double seconds;
  int segments;  // of the mix, each followed by a probe burst
  uint64_t index;
  // Outputs.
  PhaseResult result;
  std::vector<Recorded> recorded;
  std::vector<SpanRecord> spans;
  std::map<std::string, int64_t> counter_delta;
};

void Absorb(Phase* phase, Worker* w) {
  phase->result.Merge(w->result);
  phase->recorded.insert(phase->recorded.end(), w->recorded.begin(),
                         w->recorded.end());
  // Parents index into the worker's own buffer; rebase them.
  const int32_t base = static_cast<int32_t>(phase->spans.size());
  for (SpanRecord s : w->tracer.spans()) {
    if (s.parent >= 0) s.parent += base;
    phase->spans.push_back(s);
  }
}

/// Tag of a literal lookup: unique per phase, session and op, so the
/// statement text never repeats.
int64_t LookupTag(uint64_t phase, int session, uint64_t seq) {
  return static_cast<int64_t>(
      ((phase * 8 + static_cast<uint64_t>(session)) << 32) + seq);
}

/// The main mix of one client thread until `deadline_ns`.
void RunMix(Phase* p, Worker* w, Session* s, int session,
            int64_t deadline_ns) {
  const Model& m = *p->model;
  Rng* rng = &w->rng;
  w->main = true;
  const int64_t start = NowNs();
  switch (p->kind) {
    case Kind::kPaperAnalytics: {
      const Chronon now = m.start_now();
      while (NowNs() < deadline_ns) {
        switch (w->seq++ % 4) {
          case 0: QueryOp(w, s, Op::kQ1, now); break;
          case 1: QueryOp(w, s, Op::kQ2, now); break;
          case 2: QueryOp(w, s, Op::kQ3, now); break;
          case 3:
            WhatIfOp(w, s, p->fixture->conn.get(), rng, now);
            break;
        }
      }
      break;
    }
    case Kind::kTipdBrowse: {
      const Chronon now = m.SessionNow(session);
      while (NowNs() < deadline_ns) {
        if (rng->NextBool(0.8)) {
          LookupOp(w, s, rng, now, LookupTag(p->index, session, w->seq++),
                   false);
        } else {
          WindowOp(w, s, rng, now);
        }
      }
      break;
    }
    case Kind::kDurableMixed: {
      const Chronon now = m.start_now();
      if (session == 0) {
        while (NowNs() < deadline_ns) {
          CommitOp(w, s, rng, p->writer);
          MaybeCycleWriter(w, s, p->writer, true);
        }
      } else {
        while (NowNs() < deadline_ns) {
          if (w->seq++ % 2 == 0) {
            WindowOp(w, s, rng, now);
          } else {
            LookupOp(w, s, rng, now, -1, true);
          }
        }
      }
      break;
    }
  }
  w->main = false;
  w->result.main_wall_s += static_cast<double>(NowNs() - start) / 1e9;
}

/// Probes of the op classes a workload's mix does not send, grouped by
/// class so each runs warm. Counts per burst are set by the samples a
/// stable statistic needs over a run: ~5000 for the p99 of a commit,
/// ~3000 for other p99s, ~400 for the p50 of a short query, ~40 for Q2.
void ProbeBurst(Phase* p, Worker* w, Session* local) {
  // The mix loads the machine differently, so a burst calibrates
  // against samples of its own, taken more often.
  w->cal_interval_ns = 10'000'000;
  w->result.cal.Sample();
  const int scale = p->smoke ? 20 : 1;
  const Chronon now = p->model->start_now();
  client::Connection* conn = p->fixture->conn.get();
  Rng* rng = &w->rng;
  auto repeat = [&](int n, const std::function<void()>& op) {
    for (int i = 0; i < std::max(1, n / scale); ++i) op();
  };
  if (p->kind == Kind::kPaperAnalytics) {
    repeat(300, [&] {
      LookupOp(w, local, rng, now, LookupTag(p->index, 7, w->seq++), false);
    });
    repeat(300, [&] { WindowOp(w, local, rng, now); });
  } else {
    repeat(40, [&] { QueryOp(w, local, Op::kQ1, now); });
    repeat(40, [&] { QueryOp(w, local, Op::kQ3, now); });
    repeat(40, [&] { WhatIfOp(w, local, conn, rng, now); });
    repeat(4, [&] { QueryOp(w, local, Op::kQ2, now); });
  }
  if (p->kind != Kind::kDurableMixed) {
    repeat(500, [&] {
      CommitOp(w, local, rng, p->writer);
      MaybeCycleWriter(w, local, p->writer, false);
    });
  }
  w->result.cal.Sample();
  w->cal_interval_ns = 50'000'000;
}

/// One load phase: the mix in segments, each followed by a probe
/// burst. Counter deltas cover the whole phase.
void RunPhase(Phase* p) {
  Fixture* f = p->fixture;
  Session local(f->conn.get());
  std::vector<std::unique_ptr<Session>> remote;
  std::vector<Session*> sessions;  // the mix's sessions
  for (auto& r : f->remotes) {
    remote.push_back(std::make_unique<Session>(r.get()));
    sessions.push_back(remote.back().get());
  }
  if (sessions.empty()) sessions.push_back(&local);
  // Workers 0..n-1 drive the sessions; the last one runs the probes.
  std::vector<std::unique_ptr<Worker>> workers;
  for (size_t i = 0; i <= sessions.size(); ++i) {
    workers.push_back(std::make_unique<Worker>(
        p->model, p->checker, p->traced, (p->index << 40) + (i << 32),
        p->seed * 1000003 + p->index * 101 + i));
    workers.back()->record = p->traced;
  }
  const std::map<std::string, int64_t> before = ReadCounters(&*f->conn, p->out);
  const int segments = p->segments;
  for (int seg = 0; seg < segments; ++seg) {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(p->seconds / segments * 1e9);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sessions.size(); ++i) {
      threads.emplace_back(RunMix, p, workers[i].get(), sessions[i],
                           static_cast<int>(i), deadline);
    }
    for (std::thread& t : threads) t.join();
    ProbeBurst(p, workers.back().get(), &local);
  }
  const std::map<std::string, int64_t> after = ReadCounters(&*f->conn, p->out);
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    p->counter_delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  for (auto& w : workers) Absorb(p, w.get());
}

// ---------------------------------------------------------------------------
// End-of-run checks
// ---------------------------------------------------------------------------

/// The writer table in `conn` must hold exactly the acknowledged writer
/// rows with their last acknowledged dosage, no rolled-back row, and
/// rx must still hold every generated row.
void CheckWriterRows(client::Connection* conn, const WriterState& ws,
                     const char* when, RunOutput* out) {
  const std::string where = std::string(when) + ": ";
  Result<client::ResultSet> rs = conn->Execute(
      "SELECT patient, dosage FROM " + ws.table + " WHERE drug = '" +
      Model::kWriterDrug + "'");
  if (!rs.ok()) {
    out->Error(where + "writer-row query failed: " + rs.status().ToString());
    return;
  }
  std::map<std::string, int64_t> found;
  for (size_t r = 0; r < rs->row_count(); ++r) {
    found[rs->GetString(r, 0)] = rs->GetInt(r, 1);
  }
  for (const auto& [patient, dosage] : ws.expected) {
    if (ws.uncertain.count(patient) != 0) continue;
    auto it = found.find(patient);
    if (it == found.end()) {
      out->Error(where + "acknowledged row " + patient + " is missing");
      return;
    }
    if (it->second != dosage) {
      out->Error(where + "row " + patient + " has dosage " +
                 std::to_string(it->second) + ", acknowledged " +
                 std::to_string(dosage));
      return;
    }
  }
  for (const auto& entry : found) {
    if (ws.expected.count(entry.first) == 0 &&
        ws.uncertain.count(entry.first) == 0) {
      const bool rolled_back =
          std::find(ws.rolled_back.begin(), ws.rolled_back.end(),
                    entry.first) != ws.rolled_back.end();
      out->Error(where + (rolled_back ? "rolled-back" : "deleted") + " row " +
                 entry.first + " is present");
      return;
    }
  }
  Result<client::ResultSet> count = conn->Execute(
      std::string("SELECT count(*) FROM rx WHERE drug <> '") +
      Model::kWriterDrug + "'");
  if (!count.ok() || count->GetInt(0, 0) != Model::kRows) {
    out->Error(where + "the generated rows of rx changed");
  }
}

/// Every plan's operator names, outermost first, as a label.
std::string PlanShape(client::Connection* conn, const std::string& sql,
                      const engine::Params& params) {
  Result<engine::ResultSet> rs =
      conn->database().Execute("EXPLAIN " + sql, params);
  if (!rs.ok()) return "error: " + rs.status().ToString();
  std::string shape;
  for (const engine::Row& row : rs->rows) {
    std::string line = row[0].string_value();
    line.erase(0, line.find_first_not_of(' '));
    if (line.find("Stats(") != std::string::npos) continue;
    if (!shape.empty()) shape += " > ";
    shape += line;
  }
  return shape;
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

RunOutput RunWorkload(const Options& options) {
  RunOutput out;
  const Kind kind = ParseKind(options.workload);
  Model model(options.seed);
  const int64_t run_start = NowNs();

  // Set-up, several times; the last fixture serves the run. Each
  // earlier one is torn down (untimed) before the next is built.
  const int setups = options.smoke ? 1 : 5;
  Samples setup_samples;
  Calibrator setup_cal;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    setup_cal.Sample();
    const int64_t start = NowNs();
    Result<std::unique_ptr<Fixture>> f = SetUp(
        kind, model, options.work_dir + "/durable-" + std::to_string(i));
    const double us = static_cast<double>(NowNs() - start) / 1000.0;
    setup_cal.Sample();
    if (!f.ok()) {
      out.Error("set-up failed: " + f.status().ToString());
      return out;
    }
    setup_samples.Ok(start, us);
    fixture = std::move(f).value();
  }

  Checker checker(&out);
  WriterState writer;
  writer.table = WriterTable(kind);

  // Ten probe bursts per run: a traced run's two halves take five each.
  const int segments = options.smoke ? 2 : options.trace ? 5 : 10;
  auto make_phase = [&](bool traced, double seconds, uint64_t index) {
    auto p = std::make_unique<Phase>();
    p->kind = kind;
    p->smoke = options.smoke;
    p->seed = options.seed;
    p->model = &model;
    p->fixture = fixture.get();
    p->checker = &checker;
    p->out = &out;
    p->writer = &writer;
    p->traced = traced;
    p->seconds = seconds;
    p->segments = segments;
    p->index = index;
    return p;
  };

  // Untraced, the whole run length; traced runs split it into an
  // untraced half (end-to-end numbers and counters) and a traced half.
  std::unique_ptr<Phase> untraced = make_phase(
      false, options.trace ? options.seconds / 2 : options.seconds, 0);
  RunPhase(untraced.get());
  std::unique_ptr<Phase> traced;
  if (options.trace) {
    traced = make_phase(true, options.seconds / 2, 1);
    RunPhase(traced.get());
  }

  // Plans and the writer rows of the served database.
  engine::Params q1_params, q2_params, window_params, lookup_params;
  q1_params["w"] = engine::Datum::Int(1200);
  q2_params["d1"] = engine::Datum::String(Model::Drug(0));
  q2_params["d2"] = engine::Datum::String(Model::Drug(1));
  window_params["w"] = engine::Datum::String(model.WindowLiteral(0));
  lookup_params["p"] = engine::Datum::String(model.Patient(1));
  client::Connection* conn = fixture->conn.get();
  out.labels["plan.q1"] = PlanShape(conn, kQ1Sql, q1_params);
  out.labels["plan.q2"] = PlanShape(conn, kQ2Sql, q2_params);
  out.labels["plan.q3"] = PlanShape(conn, kQ3Sql, {});
  out.labels["plan.whatif"] = PlanShape(conn, kWhatIfSql, {});
  out.labels["plan.window"] = PlanShape(conn, kWindowSql, window_params);
  out.labels["plan.lookup"] =
      PlanShape(conn, kLookupPreparedSql, lookup_params);
  CheckWriterRows(conn, writer, "served database", &out);

  if (kind == Kind::kDurableMixed) {
    // Drain the server (final checkpoint), close the database, and
    // re-attach the directory in strict mode.
    const std::string dir = fixture->durable_dir;
    fixture.reset();
    engine::RecoveryReport report;
    Result<std::unique_ptr<client::Connection>> reopened =
        client::Connection::OpenDurable(dir, &report,
                                        engine::RecoveryMode::kStrict);
    if (!reopened.ok()) {
      out.Error("strict re-attach failed: " + reopened.status().ToString());
    } else {
      CheckWriterRows(reopened->get(), writer, "after re-attach", &out);
    }
    out.labels["durability"] =
        std::to_string(writer.acked) + " commits acknowledged; after strict "
        "re-attach the " + std::to_string(writer.expected.size()) +
        " rows of the last cycle are present with their last dosage, and " +
        std::to_string(writer.rolled_back.size()) +
        " rolled-back and every deleted row are absent";
  }
  fixture.reset();

  PhaseResult all = untraced->result;
  if (traced != nullptr) all.Merge(traced->result);
  for (const Samples& s : all.ops) {
    out.attempted += s.attempted();
    out.failed += s.failed;
  }

  // A failed op counts as taking the whole run.
  const double fail_us = static_cast<double>(NowNs() - run_start) / 1000.0;
  const PhaseResult& e2e = untraced->result;
  auto pct = [&](Op op, double p) {
    return Percentile(e2e.ops[static_cast<int>(op)], e2e.cal, p, fail_us);
  };
  out.labels["env.wal_mode"] =
      kind == Kind::kDurableMixed
          ? "sync: every acknowledged commit was fsynced"
          : "none: in-memory database";
  out.labels["env.start_now"] = model.start_now().ToString();
  out.labels["calibration.kernel_us"] = Fixed(e2e.cal.MedianKernelUs(), 2);
  for (int i = 0; i < kOpCount; ++i) {
    const Samples& s = e2e.ops[i];
    out.labels[std::string("samples.") + OpName(static_cast<Op>(i))] =
        std::to_string(s.completed()) + " ok, " + std::to_string(s.failed) +
        " failed";
  }
  const Calibrator raw;
  out.labels["raw.q2_p50_ms"] = Fixed(
      Percentile(e2e.ops[static_cast<int>(Op::kQ2)], raw, 0.5, fail_us) / 1000,
      3);
  out.labels["raw.lookup_p50_us"] = Fixed(
      Percentile(e2e.ops[static_cast<int>(Op::kLookup)], raw, 0.5, fail_us),
      1);

  if (options.trace) {
    AddLayerMetrics(options, &model, untraced->result, traced->result,
                    traced->recorded, traced->spans, untraced->counter_delta,
                    kind != Kind::kPaperAnalytics, &out);
    return out;
  }

  // Throughput is calibrated by the time-weighted factor of the ops.
  double raw_us = 0, calibrated_us = 0;
  for (const Samples& s : e2e.ops) {
    for (const Samples::Sample& x : s.all) {
      if (x.us < 0) continue;
      raw_us += x.us;
      calibrated_us += x.us * e2e.cal.Factor(x.start_ns);
    }
  }
  const double factor = raw_us > 0 ? calibrated_us / raw_us : 1;
  const double throughput =
      e2e.main_wall_s > 0
          ? static_cast<double>(e2e.main_completed) / e2e.main_wall_s
          : 0;
  out.metrics = {
      {"setup_s", Percentile(setup_samples, setup_cal, 0.5, 0) / 1e6, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"throughput_ops", throughput / factor, "1/s"},
      {"ok_ratio",
       out.attempted == 0 ? 0
                          : static_cast<double>(out.attempted - out.failed) /
                                static_cast<double>(out.attempted),
       "ratio"},
      {"q1_p50_ms", pct(Op::kQ1, 0.5) / 1000, "ms"},
      {"q2_p50_ms", pct(Op::kQ2, 0.5) / 1000, "ms"},
      {"q3_p50_ms", pct(Op::kQ3, 0.5) / 1000, "ms"},
      {"whatif_p50_ms", pct(Op::kWhatIf, 0.5) / 1000, "ms"},
      {"lookup_p50_us", pct(Op::kLookup, 0.5), "us"},
      {"lookup_p99_us", pct(Op::kLookup, 0.99), "us"},
      {"window_p50_us", pct(Op::kWindow, 0.5), "us"},
      {"window_p99_us", pct(Op::kWindow, 0.99), "us"},
      {"commit_p50_ms", pct(Op::kCommit, 0.5) / 1000, "ms"},
      {"commit_p99_ms", pct(Op::kCommit, 0.99) / 1000, "ms"},
  };
  return out;
}

}  // namespace tipbench
