// esca::xp — the regression comparator.
//
// compare(baseline, current, config) joins two BenchHistory documents on
// point identity (the config's declared key fields + the invocation args),
// judges every declared metric by its direction and noise tolerance, and
// returns a verdict table plus the gate decision. Stable metrics
// (counter-derived: rule counts, DRAM bytes, stall totals) FAIL the gate on
// violation; unstable ones (wall-clock on a noisy 1-core CI host) WARN —
// `strict` promotes warnings to failures for quiet local machines. When the
// two documents come from different hosts (meta.host or meta.cpus differ),
// a changed unstable metric is only reported as "other-host": wall clock
// measured on another machine is no evidence either way, so it neither
// warns nor fails, even under `strict`; stable metrics still gate. A rule
// that matches no record in either document always FAILs: a gate that can
// never see its metric is not a gate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "xp/config.hpp"
#include "xp/record.hpp"

namespace esca::xp {

enum class Verdict {
  kOk,               ///< bit-equal / zero delta
  kWithinNoise,      ///< nonzero delta inside the tolerance band
  kImproved,         ///< beyond tolerance in the good direction
  kRegressed,        ///< beyond tolerance in the bad direction
  kMissingBaseline,  ///< point/metric new in current (refresh will adopt it)
  kMissingCurrent,   ///< point/metric the bench stopped emitting
  kSchemaMismatch,   ///< history documents speak different schemas
  kUnmatchedRule,    ///< a declared rule matches no record in either document
  kOtherHost,        ///< unstable metric changed, but baseline ran on another host
};

const char* to_string(Verdict v);

/// One (point, metric) judgement.
struct VerdictRow {
  std::string point;      ///< human-readable point identity
  std::string metric;
  std::string record;     ///< kRecordBench or kRecordObs
  std::string baseline;   ///< rendered value ("-" when missing)
  std::string current;
  double delta_pct{0.0};  ///< signed, bad direction positive
  Verdict verdict{Verdict::kOk};
  bool stable{false};
  bool gates{false};      ///< this row counts against the gate
};

struct CompareReport {
  std::vector<VerdictRow> rows;
  std::size_t failures{0};     ///< gating violations
  std::size_t warnings{0};     ///< non-gating violations
  std::size_t improvements{0};
  std::size_t compared{0};     ///< (point, metric) pairs judged on both sides

  bool pass() const { return failures == 0; }
  /// Full verdict table (all rows) via common/table. Its "Worse %" column
  /// is delta_pct: positive is worse, whatever the metric's direction.
  std::string table(const std::string& title) const;
  /// One-line outcome, e.g. "FAIL: 2 regression(s), 1 warning(s), 40 compared".
  std::string summary() const;
};

/// Stable identity of a record inside one bench's history: the record kind,
/// the invocation args, and (for BENCH records) the declared key fields.
std::string point_id(const RunRecord& record, const ExperimentConfig& config);

/// Judge `current` against `baseline` under `config`'s metric rules.
/// `strict` also gates unstable-metric violations.
CompareReport compare(const BenchHistory& baseline, const BenchHistory& current,
                      const ExperimentConfig& config, bool strict = false);

}  // namespace esca::xp
