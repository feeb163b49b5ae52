// The benchmark's data model: the generated prescription rows, the
// statements every workload sends, and reference answers computed from
// the rows without the engine — nested loops over the rows and the
// obviously-correct algebra of core/element_reference.h — which every
// result the engine returns is checked against.
#include <algorithm>
#include <cstring>

#include "bench.h"
#include "browser/timeline.h"
#include "core/element_reference.h"

namespace tipbench {

const char* const kQ1Sql =
    "SELECT patient FROM rx WHERE drug = 'drug0003' AND "
    "start(valid) - patientdob < '7 00:00:00'::Span * :w";
const char* const kQ2Sql =
    "SELECT p1.patient, intersect(p1.valid, p2.valid) FROM rx p1, rx p2 "
    "WHERE p1.drug = :d1 AND p2.drug = :d2 AND "
    "p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)";
const char* const kQ3Sql =
    "SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient";
const char* const kWindowSql =
    "SELECT patient, drug, dosage FROM rx "
    "WHERE overlaps(valid, CAST(:w AS Element))";
const char* const kWhatIfSql =
    "SELECT patient, drug, valid FROM rx "
    "WHERE overlaps(valid, '{[1999-01-01, 1999-12-31]}'::Element)";
const char* const kLookupPreparedSql =
    "SELECT drug, dosage, valid FROM rx WHERE patient = :p";

std::string InsertSql(const std::string& table) {
  return "INSERT INTO " + table +
         " VALUES (:doctor, :patient, :dob, :drug, :dosage, :frequency, "
         ":valid)";
}

std::string UpdateSql(const std::string& table) {
  return "UPDATE " + table + " SET dosage = :dosage WHERE patient = :patient";
}

namespace {

constexpr int64_t kDay = 86400;
constexpr int64_t kQ1Weeks = 1200;
constexpr const char* kWhatIfWindow = "{[1999-01-01, 1999-12-31]}";

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return Mix(h);
}

uint64_t HashInstant(const Instant& i) {
  return i.is_now_relative() ? Mix(0x4e4f57ull ^ static_cast<uint64_t>(
                                                    i.offset().seconds()))
                             : Mix(static_cast<uint64_t>(
                                   i.chronon().seconds()));
}

uint64_t HashElement(const Element& e) {
  uint64_t h = Mix(e.size());
  for (const Period& p : e.periods()) {
    h = Mix(h ^ HashInstant(p.start()));
    h = Mix(h ^ HashInstant(p.end()));
  }
  return h;
}

uint64_t HashGrounded(const GroundedElement& g) {
  uint64_t h = Mix(g.size() ^ 0x67ull);
  for (const GroundedPeriod& p : g.periods()) {
    h = Mix(h ^ static_cast<uint64_t>(p.start().seconds()));
    h = Mix(h ^ static_cast<uint64_t>(p.end().seconds()));
  }
  return h;
}

uint64_t Combine(uint64_t row, uint64_t cell) { return Mix(row * 31 + cell); }

uint64_t HashCell(const client::ResultSet& rs, size_t r, size_t c) {
  if (rs.IsNull(r, c)) return 0x6e756c6cull;
  const engine::TypeId type = rs.column_type(c);
  const datablade::TipTypes& t = rs.tip_types();
  if (type == engine::TypeId::kInt) {
    return Mix(static_cast<uint64_t>(rs.GetInt(r, c)));
  }
  if (type == engine::TypeId::kString) return HashString(rs.GetString(r, c));
  if (type == t.element) return HashElement(rs.GetElement(r, c));
  if (type == t.span) {
    return Mix(0x5350ull ^ static_cast<uint64_t>(rs.GetSpan(r, c).seconds()));
  }
  return HashString(rs.GetText(r, c));
}

uint64_t SpanHash(const Span& s) {
  return Mix(0x5350ull ^ static_cast<uint64_t>(s.seconds()));
}

Chronon Day(const std::string& text) { return Chronon::Parse(text).value(); }

Chronon AddDays(Chronon c, int64_t days) {
  return Chronon::FromSeconds(c.seconds() + days * kDay).value();
}

}  // namespace

std::string LookupLiteralSql(const std::string& patient, int64_t tag) {
  return "SELECT " + std::to_string(tag) +
         " AS req, drug, dosage, valid FROM rx WHERE patient = '" + patient +
         "'";
}

Digest ResultDigest(const client::ResultSet& rs) {
  Digest d = 0;
  for (size_t r = 0; r < rs.row_count(); ++r) {
    uint64_t h = 0;
    for (size_t c = 0; c < rs.column_count(); ++c) {
      h = Combine(h, HashCell(rs, r, c));
    }
    d += Mix(h);
  }
  return d;
}

Digest TimelineDigest(const browser::TimelineView& view) {
  Digest d = 0;
  for (const browser::TimelineRow& row : view.rows()) {
    uint64_t h = 0;
    for (const std::string& field : row.fields) {
      h = Combine(h, HashString(field));
    }
    d += Mix(Combine(h, HashGrounded(row.valid)));
  }
  return d;
}

Digest LookupDigest(const client::ResultSet& rs, int64_t* tag_mismatches,
                    int64_t tag) {
  Digest d = 0;
  const bool tagged = tag >= 0;
  const size_t first = tagged ? 1 : 0;
  for (size_t r = 0; r < rs.row_count(); ++r) {
    if (tagged && rs.GetInt(r, 0) != tag) ++*tag_mismatches;
    uint64_t h = 0;
    for (size_t c = first; c < rs.column_count(); ++c) {
      h = Combine(h, HashCell(rs, r, c));
    }
    d += Mix(h);
  }
  return d;
}

Model::Model(uint64_t seed) {
  config_.seed = seed;
  config_.rows = kRows;
  config_.num_patients = static_cast<int>(kRows / 8 + 1);
  config_.num_drugs = 10;
  config_.now_relative_fraction = 0.1;
  rows_ = workload::GeneratePrescriptions(config_);

  types_db_ = std::make_unique<engine::Database>();
  if (!datablade::Install(types_db_.get()).ok()) std::abort();
  tip_types_ = datablade::TipTypes::Lookup(*types_db_).value();

  // Every NOW the benchmark sets must not precede the start of an
  // open-ended prescription, or grounding that row fails.
  Chronon latest_open = Day(config_.history_start);
  for (const workload::PrescriptionRow& row : rows_) {
    for (const Period& p : row.valid.periods()) {
      if (p.end().is_now_relative() && p.start().is_absolute() &&
          latest_open < p.start().chronon()) {
        latest_open = p.start().chronon();
      }
    }
  }
  start_now_ = std::max(Day("2000-01-01"), AddDays(latest_open, 1));

  // Windows and what-if NOWs lie on even grids (ops pick among them at
  // random), so their cost mix does not swing with the seed.
  const Chronon history = Day(config_.history_start);
  for (int i = 0; i < kWindows; ++i) {
    const Chronon s =
        AddDays(history, (config_.history_days - 31) * i / (kWindows - 1));
    GroundedElement g =
        GroundedElement::Of(GroundedPeriod::Make(s, AddDays(s, 30)).value());
    windows_.push_back(Element::FromGrounded(g).ToString());
    window_elements_.push_back(std::move(g));
  }
  // What-if NOWs fall after the browse window starts, so every move
  // browses the open-ended prescriptions and costs about the same.
  const int64_t lo = std::max(latest_open.seconds() / kDay + 1,
                              Day("1999-06-01").seconds() / kDay);
  const int64_t hi = Day("2001-12-31").seconds() / kDay;
  for (int i = 0; i < kWhatIfNows; ++i) {
    whatif_nows_.push_back(
        Chronon::FromSeconds((lo + (hi - lo) * i / (kWhatIfNows - 1)) * kDay)
            .value());
  }

  // Q1: prescriptions of drug0003 that started within 1200 weeks of the
  // patient's birth.
  const std::vector<GroundedElement>& g = GroundedAt(start_now_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const workload::PrescriptionRow& row = rows_[i];
    if (row.drug == "drug0003" && !g[i].IsEmpty() &&
        g[i].periods().front().start().seconds() -
                row.patient_dob.seconds() <
            kQ1Weeks * 7 * kDay) {
      q1_ref_ += Mix(Combine(0, HashString(row.patient)));
    }
  }
  // Q2: the nested-loop pair set of every drug pair.
  std::map<std::string, std::vector<size_t>> by_drug;
  for (size_t i = 0; i < rows_.size(); ++i) by_drug[rows_[i].drug].push_back(i);
  for (int pair = 0; pair < kQ2Pairs; ++pair) {
    const std::vector<size_t>& left = by_drug[Drug(pair)];
    const std::vector<size_t>& right =
        by_drug[Drug((pair + 1) % config_.num_drugs)];
    for (size_t i : left) {
      for (size_t j : right) {
        if (rows_[i].patient != rows_[j].patient ||
            !reference::QuadraticOverlaps(g[i], g[j])) {
          continue;
        }
        const Element inter =
            Element::FromGrounded(reference::QuadraticIntersect(g[i], g[j]));
        q2_ref_[pair] += Mix(Combine(Combine(0, HashString(rows_[i].patient)),
                                     HashElement(inter)));
      }
    }
  }
  // Lookups: each patient's rows as stored.
  for (const workload::PrescriptionRow& row : rows_) {
    uint64_t h = Combine(0, HashString(row.drug));
    h = Combine(h, Mix(static_cast<uint64_t>(row.dosage)));
    h = Combine(h, HashElement(row.valid));
    patient_ref_[row.patient] += Mix(h);
  }
}

Chronon Model::SessionNow(int i) const { return AddDays(start_now_, 182 * i); }

std::string Model::Drug(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "drug%04d", i);
  return buf;
}

std::string Model::Patient(int i) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "patient%04d", i);
  return buf;
}

const std::vector<GroundedElement>& Model::GroundedAt(Chronon now) {
  auto it = grounded_.find(now.seconds());
  if (it != grounded_.end()) return it->second;
  std::vector<GroundedElement> out;
  out.reserve(rows_.size());
  const TxContext tx(now);
  for (const workload::PrescriptionRow& row : rows_) {
    out.push_back(row.valid.Ground(tx).value());
  }
  return grounded_.emplace(now.seconds(), std::move(out)).first->second;
}

Digest Model::Q3Ref() {
  std::lock_guard<std::mutex> lock(mu_);
  if (q3_memo_.has_value()) return *q3_memo_;
  const std::vector<GroundedElement>& g = GroundedAt(start_now_);
  std::map<std::string, GroundedElement> per_patient;
  for (size_t i = 0; i < rows_.size(); ++i) {
    GroundedElement& acc = per_patient[rows_[i].patient];
    acc = reference::QuadraticUnion(acc, g[i]);
  }
  const Span writer_length = Element::Parse(kWriterValid)
                                 .value()
                                 .Ground(TxContext(start_now_))
                                 .value()
                                 .TotalDuration();
  Digest d = 0;
  for (const auto& [patient, element] : per_patient) {
    d += Mix(Combine(Combine(0, HashString(patient)),
                     SpanHash(element.TotalDuration())));
  }
  for (const std::string& patient : writer_rows_) {
    d += Mix(Combine(Combine(0, HashString(patient)),
                     SpanHash(writer_length)));
  }
  q3_memo_ = d;
  return d;
}

Digest Model::LookupRef(const std::string& patient) const {
  auto it = patient_ref_.find(patient);
  return it == patient_ref_.end() ? 0 : it->second;
}

Digest Model::WindowRef(int window, Chronon now) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(window, now.seconds());
  auto it = window_memo_.find(key);
  if (it != window_memo_.end()) return it->second;
  const std::vector<GroundedElement>& g = GroundedAt(now);
  const GroundedElement& w = window_elements_[static_cast<size_t>(window)];
  Digest d = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!reference::QuadraticOverlaps(g[i], w)) continue;
    uint64_t h = Combine(0, HashString(rows_[i].patient));
    h = Combine(h, HashString(rows_[i].drug));
    h = Combine(h, Mix(static_cast<uint64_t>(rows_[i].dosage)));
    d += Mix(h);
  }
  window_memo_.emplace(key, d);
  return d;
}

Digest Model::WhatIfRef(Chronon now) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = whatif_memo_.find(now.seconds());
  if (it != whatif_memo_.end()) return it->second;
  const TxContext tx(now);
  const GroundedElement w =
      Element::Parse(kWhatIfWindow).value().Ground(tx).value();
  Digest d = 0;
  for (const workload::PrescriptionRow& row : rows_) {
    const GroundedElement g = row.valid.Ground(tx).value();
    if (!reference::QuadraticOverlaps(g, w)) continue;
    uint64_t h = Combine(0, HashString(row.patient));
    h = Combine(h, HashString(row.drug));
    h = Combine(h, HashGrounded(g));
    d += Mix(h);
  }
  whatif_memo_.emplace(now.seconds(), d);
  return d;
}

void Model::AddWriterRow(const std::string& patient) {
  std::lock_guard<std::mutex> lock(mu_);
  writer_rows_.push_back(patient);
  q3_memo_.reset();
}

void Model::ClearWriterRows() {
  std::lock_guard<std::mutex> lock(mu_);
  writer_rows_.clear();
  q3_memo_.reset();
}

}  // namespace tipbench
