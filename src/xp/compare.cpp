#include "xp/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace esca::xp {

namespace {

std::string render_value(const json::Value* v) {
  if (v == nullptr) return "-";
  switch (v->kind) {
    case json::Value::Kind::kNumber: return json::dump_number(v->number);
    case json::Value::Kind::kString: return v->string;
    case json::Value::Kind::kBool: return v->boolean ? "true" : "false";
    default: return v->dump();
  }
}

/// Signed badness in percent: positive means worse under `rule.direction`.
double badness_pct(const MetricRule& rule, double base, double cur) {
  if (base == cur) return 0.0;
  const double sign = rule.direction == Direction::kHigherIsBetter ? -1.0 : 1.0;
  if (base == 0.0) {
    return sign * (cur > base ? 1.0 : -1.0) * std::numeric_limits<double>::infinity();
  }
  return sign * (cur - base) / std::fabs(base) * 100.0;
}

Verdict judge_numbers(const MetricRule& rule, double base, double cur, double& delta_pct) {
  delta_pct = badness_pct(rule, base, cur);
  if (rule.direction == Direction::kEqual) {
    return base == cur ? Verdict::kOk : Verdict::kRegressed;
  }
  if (delta_pct == 0.0) return Verdict::kOk;
  if (delta_pct > rule.tolerance_pct) return Verdict::kRegressed;
  if (delta_pct < -rule.tolerance_pct) return Verdict::kImproved;
  return Verdict::kWithinNoise;
}

struct RowSink {
  CompareReport& report;
  bool strict;

  void add(const std::string& point, const MetricRule& rule, const json::Value* base,
           const json::Value* cur, Verdict verdict, double delta_pct) {
    VerdictRow row;
    row.point = point;
    row.metric = rule.name;
    row.record = rule.record;
    row.baseline = render_value(base);
    row.current = render_value(cur);
    row.delta_pct = delta_pct;
    row.verdict = verdict;
    row.stable = rule.stable;
    const bool violation = verdict == Verdict::kRegressed ||
                           verdict == Verdict::kMissingCurrent ||
                           verdict == Verdict::kSchemaMismatch;
    row.gates = verdict == Verdict::kUnmatchedRule || (violation && (rule.stable || strict));
    if (row.gates) {
      ++report.failures;
    } else if (violation || verdict == Verdict::kMissingBaseline) {
      ++report.warnings;
    }
    if (verdict == Verdict::kImproved) ++report.improvements;
    report.rows.push_back(std::move(row));
  }
};

}  // namespace

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kWithinNoise: return "within-noise";
    case Verdict::kImproved: return "IMPROVED";
    case Verdict::kRegressed: return "REGRESSED";
    case Verdict::kMissingBaseline: return "new-in-current";
    case Verdict::kMissingCurrent: return "MISSING";
    case Verdict::kSchemaMismatch: return "SCHEMA-MISMATCH";
    case Verdict::kUnmatchedRule: return "UNMATCHED-RULE";
    case Verdict::kOtherHost: return "other-host";
  }
  return "?";
}

std::string point_id(const RunRecord& record, const ExperimentConfig& config) {
  std::string id = record.kind;
  for (const auto& [k, v] : record.args) {
    id += " ";
    id += k;
    id += "=";
    id += v;
  }
  if (record.kind == kRecordBench) {
    for (const std::string& key : config.key) {
      const json::Value* v = record.field(key);
      if (v == nullptr) continue;
      id += " ";
      id += key;
      id += "=";
      id += render_value(v);
    }
  }
  return id;
}

std::string CompareReport::table(const std::string& title) const {
  Table t(title);
  t.header({"Point", "Metric", "Baseline", "Current", "Worse %", "Verdict", "Gate"});
  for (const VerdictRow& row : rows) {
    std::string delta = "-";
    if (std::isfinite(row.delta_pct)) {
      delta = str::format("%+.2f", row.delta_pct);
    } else if (std::isinf(row.delta_pct)) {
      delta = row.delta_pct > 0 ? "+inf" : "-inf";
    }
    const bool violation = row.verdict == Verdict::kRegressed ||
                           row.verdict == Verdict::kMissingCurrent ||
                           row.verdict == Verdict::kSchemaMismatch;
    t.row({row.point, row.record == kRecordObs ? "obs:" + row.metric : row.metric,
           row.baseline, row.current, delta, to_string(row.verdict),
           row.gates ? "FAIL" : (violation || row.verdict == Verdict::kMissingBaseline
                                     ? "warn"
                                     : "")});
  }
  return t.to_string();
}

std::string CompareReport::summary() const {
  if (pass()) {
    return str::format("PASS: %zu compared, %zu improvement(s), %zu warning(s)", compared,
                       improvements, warnings);
  }
  return str::format("FAIL: %zu gating violation(s), %zu warning(s), %zu compared", failures,
                     warnings, compared);
}

CompareReport compare(const BenchHistory& baseline, const BenchHistory& current,
                      const ExperimentConfig& config, bool strict) {
  CompareReport report;
  RowSink sink{report, strict};

  if (baseline.schema != current.schema || baseline.bench != current.bench) {
    MetricRule schema_rule;
    schema_rule.name = "schema";
    schema_rule.stable = true;
    schema_rule.record = kRecordBench;
    const json::Value base =
        json::Value::make_string(str::format("%s/v%d", baseline.bench.c_str(), baseline.schema));
    const json::Value cur =
        json::Value::make_string(str::format("%s/v%d", current.bench.c_str(), current.schema));
    sink.add("(document)", schema_rule, &base, &cur, Verdict::kSchemaMismatch,
             std::numeric_limits<double>::quiet_NaN());
    return report;
  }

  // Join on point identity. Later duplicates win (a rerun within one
  // history supersedes its predecessor).
  std::map<std::string, const RunRecord*> base_points;
  std::map<std::string, const RunRecord*> cur_points;
  for (const RunRecord& r : baseline.runs) base_points[point_id(r, config)] = &r;
  for (const RunRecord& r : current.runs) cur_points[point_id(r, config)] = &r;

  const bool other_host =
      baseline.meta.host != current.meta.host || baseline.meta.cpus != current.meta.cpus;
  std::vector<bool> rule_matched(config.metrics.size(), false);
  std::set<std::string> ids;
  for (const auto& [id, r] : base_points) ids.insert(id);
  for (const auto& [id, r] : cur_points) ids.insert(id);

  for (const std::string& id : ids) {
    const auto bit = base_points.find(id);
    const auto cit = cur_points.find(id);
    const RunRecord* base = bit == base_points.end() ? nullptr : bit->second;
    const RunRecord* cur = cit == cur_points.end() ? nullptr : cit->second;
    const std::string& kind = (base != nullptr ? base : cur)->kind;

    for (std::size_t r = 0; r < config.metrics.size(); ++r) {
      const MetricRule& rule = config.metrics[r];
      if (rule.record != kind) continue;
      const json::Value* bv = base != nullptr ? base->field(rule.name) : nullptr;
      const json::Value* cv = cur != nullptr ? cur->field(rule.name) : nullptr;
      if (bv == nullptr && cv == nullptr) continue;  // rule targets other records
      rule_matched[r] = true;
      if (cv == nullptr) {
        sink.add(id, rule, bv, nullptr, Verdict::kMissingCurrent,
                 std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      if (bv == nullptr) {
        sink.add(id, rule, nullptr, cv, Verdict::kMissingBaseline,
                 std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      ++report.compared;
      if (bv->is_number() && cv->is_number()) {
        double delta_pct = 0.0;
        Verdict v = judge_numbers(rule, bv->number, cv->number, delta_pct);
        if (other_host && !rule.stable && v != Verdict::kOk) v = Verdict::kOtherHost;
        sink.add(id, rule, bv, cv, v, delta_pct);
      } else {
        // Non-numeric metrics only make sense under "equal".
        const bool same = bv->kind == cv->kind && bv->dump() == cv->dump();
        sink.add(id, rule, bv, cv, same ? Verdict::kOk : Verdict::kRegressed,
                 std::numeric_limits<double>::quiet_NaN());
      }
    }
  }
  for (std::size_t r = 0; r < config.metrics.size(); ++r) {
    if (!rule_matched[r]) {
      sink.add("(no record)", config.metrics[r], nullptr, nullptr, Verdict::kUnmatchedRule,
               std::numeric_limits<double>::quiet_NaN());
    }
  }
  return report;
}

}  // namespace esca::xp
