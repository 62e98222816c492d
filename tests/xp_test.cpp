// esca::xp tests: the common JSON parser/writer, the BenchLine -> BENCH-line
// -> RunRecord round trip, obs-snapshot flattening, history serialization,
// grid expansion (counting + determinism properties), experiment-config
// parsing with smoke inheritance, and the regression comparator's verdict
// logic — including the acceptance check that a synthetic >= 20 % regression
// on a stable metric fails the gate while the identical history passes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "sparse/geometry.hpp"
#include "xp/xp.hpp"

namespace esca::xp {
namespace {

// --- common/json --------------------------------------------------------------

json::Value parsed(const std::string& text) {
  json::Value v;
  std::string error;
  EXPECT_TRUE(json::parse(text, v, error)) << error;
  return v;
}

TEST(JsonTest, ParsesNestedDocument) {
  const json::Value v = parsed(
      R"({"a":[1,2,[3,{"b":true}]],"s":"x\ny","neg":-0.5,"exp":1e3,"null":null})");
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.get("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->array.size(), 3U);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  ASSERT_TRUE(a->array[2].is_array());
  EXPECT_TRUE(a->array[2].array[1].get("b")->boolean);
  EXPECT_EQ(v.get("s")->string, "x\ny");
  EXPECT_DOUBLE_EQ(v.get("neg")->number, -0.5);
  EXPECT_DOUBLE_EQ(v.get("exp")->number, 1000.0);
  EXPECT_TRUE(v.get("null")->is_null());
}

TEST(JsonTest, ParsesStringEscapes) {
  const json::Value v = parsed(R"({"s":"q\" b\\ s\/ n\n t\t uAé"})");
  EXPECT_EQ(v.get("s")->string, "q\" b\\ s/ n\n t\t uAé");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",                 // empty
      "{",                // unterminated object
      "[1,]",             // trailing comma
      R"({"a" 1})",       // missing colon
      R"({"a":1} x)",     // trailing content
      R"("unterminated)", // unterminated string
      "tru",              // bad literal
      "{1:2}",            // non-string key
  };
  for (const char* text : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, v, error)) << "accepted: " << text;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonTest, DumpRoundTripsAndSortsKeys) {
  const std::string text = R"({"z":1,"a":{"k":[true,null,"s"]},"m":2.5})";
  const json::Value v = parsed(text);
  const std::string dumped = v.dump();
  EXPECT_EQ(dumped, R"({"a":{"k":[true,null,"s"]},"m":2.5,"z":1})");
  EXPECT_EQ(parsed(dumped).dump(), dumped);  // dump(parse(x)) is a fixpoint
}

TEST(JsonTest, DumpNumberIsExactForCountersAndRoundTripsDoubles) {
  EXPECT_EQ(json::dump_number(0), "0");
  EXPECT_EQ(json::dump_number(-17), "-17");
  EXPECT_EQ(json::dump_number(9007199254740991.0), "9007199254740991");
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-8, 1.7976931348623157e308}) {
    EXPECT_DOUBLE_EQ(std::stod(json::dump_number(v)), v);
  }
}

TEST(JsonTest, EscapeHandlesQuotesAndControlChars) {
  EXPECT_EQ(json::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
}

// --- BenchLine -> parse_bench_line round trip ---------------------------------

TEST(BenchLineTest, RoundTripsThroughTheHarnessParser) {
  const std::string line = "BENCH " + bench::BenchLine("demo")
                                          .field("rules", std::int64_t{123456})
                                          .field("ms", 1.23456, 3)
                                          .field("label", "a\"b")
                                          .field("flag", true)
                                          .json();
  EXPECT_EQ(classify_line(line), LineKind::kBench);

  RunRecord rec;
  std::string error;
  ASSERT_TRUE(parse_bench_line(line, rec, error)) << error;
  EXPECT_EQ(rec.kind, kRecordBench);
  EXPECT_EQ(rec.field("bench")->string, "demo");
  EXPECT_DOUBLE_EQ(rec.number("schema"), kBenchLineSchema);
  EXPECT_DOUBLE_EQ(rec.number("rules"), 123456.0);
  EXPECT_DOUBLE_EQ(rec.number("ms"), 1.235);  // %.3f fixed point
  EXPECT_EQ(rec.field("label")->string, "a\"b");
  EXPECT_TRUE(rec.field("flag")->boolean);
  EXPECT_FALSE(rec.has_number("label"));
}

TEST(BenchLineTest, ParserRejectsUnversionedAndWrongSchemaLines) {
  RunRecord rec;
  std::string error;
  EXPECT_FALSE(parse_bench_line(R"(BENCH {"bench":"x","rules":1})", rec, error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(parse_bench_line(R"(BENCH {"bench":"x","schema":999})", rec, error));
  EXPECT_FALSE(parse_bench_line("BENCH {not json", rec, error));
  EXPECT_FALSE(parse_bench_line("plain output", rec, error));
}

TEST(BenchLineTest, ObsSnapshotFlattensCountersGaugesAndHistogramCounts) {
  const std::string line =
      R"(BENCHOBS {"counters":{"esca_x_total":42},"gauges":{"depth":2.5},)"
      R"("histograms":{"lat_seconds":{"count":7,"p50":0.001,"p99":0.1}}})";
  EXPECT_EQ(classify_line(line), LineKind::kObs);

  RunRecord rec;
  std::string error;
  ASSERT_TRUE(parse_obs_line(line, rec, error)) << error;
  EXPECT_EQ(rec.kind, kRecordObs);
  EXPECT_DOUBLE_EQ(rec.number("esca_x_total"), 42.0);
  EXPECT_DOUBLE_EQ(rec.number("depth"), 2.5);
  EXPECT_DOUBLE_EQ(rec.number("lat_seconds_count"), 7.0);
  EXPECT_EQ(rec.field("lat_seconds_p50"), nullptr);  // quantiles never gated
}

TEST(BenchLineTest, ObsSnapshotFoldsInAnExtraRegistry) {
  // Per-instance registries (a serve::Server's telemetry) ride on the same
  // BENCHOBS line as the global registry, so rules over them can match.
  obs::Registry local;
  local.counter("esca_demo_local_total").inc(3);
  (void)sparse::geometry_builds_counter();  // a global-registry cell
  ASSERT_EQ(setenv("ESCA_BENCH_OBS", "1", 1), 0);
  ::testing::internal::CaptureStdout();
  bench::emit_obs_snapshot(&local);
  std::fflush(stdout);
  const std::string out = ::testing::internal::GetCapturedStdout();
  unsetenv("ESCA_BENCH_OBS");

  const std::string line = out.substr(0, out.find('\n'));
  RunRecord rec;
  std::string error;
  ASSERT_TRUE(parse_obs_line(line, rec, error)) << error << ": " << line;
  EXPECT_DOUBLE_EQ(rec.number("esca_demo_local_total"), 3.0);
  // The global registry's cells are still there.
  EXPECT_NE(rec.field("esca_geometry_builds_total"), nullptr);
}

// --- history serialization ----------------------------------------------------

RunRecord make_record(std::map<std::string, std::string> args,
                      std::map<std::string, double> numbers,
                      const std::string& kind = kRecordBench) {
  RunRecord rec;
  rec.kind = kind;
  rec.args = std::move(args);
  for (const auto& [k, v] : numbers) rec.fields.emplace(k, json::Value::make_number(v));
  return rec;
}

TEST(HistoryTest, ToJsonFromJsonRoundTrip) {
  BenchHistory h;
  h.bench = "demo";
  h.meta = {"host-a", 8, "2026-08-08T00:00:00Z", "abc1234", "smoke"};
  h.runs.push_back(make_record({{"threads", "2"}}, {{"schema", 1}, {"rules", 99}}));
  h.runs.push_back(make_record({{"threads", "2"}}, {{"esca_x_total", 5}}, kRecordObs));

  BenchHistory back;
  std::string error;
  ASSERT_TRUE(BenchHistory::from_json(h.to_json(), back, error)) << error;
  EXPECT_EQ(back.schema, kHistorySchema);
  EXPECT_EQ(back.bench, "demo");
  EXPECT_EQ(back.meta.host, "host-a");
  EXPECT_EQ(back.meta.cpus, 8);
  EXPECT_EQ(back.meta.git, "abc1234");
  EXPECT_EQ(back.meta.profile, "smoke");
  ASSERT_EQ(back.runs.size(), 2U);
  EXPECT_EQ(back.runs[0].args.at("threads"), "2");
  EXPECT_DOUBLE_EQ(back.runs[0].number("rules"), 99.0);
  EXPECT_EQ(back.runs[1].kind, kRecordObs);
  EXPECT_DOUBLE_EQ(back.runs[1].number("esca_x_total"), 5.0);
}

TEST(HistoryTest, FromJsonRejectsDamagedDocuments) {
  BenchHistory out;
  std::string error;
  EXPECT_FALSE(BenchHistory::from_json("[]", out, error));
  EXPECT_FALSE(BenchHistory::from_json(R"({"schema":1,"bench":"x"})", out, error));
  EXPECT_FALSE(
      BenchHistory::from_json(R"({"schema":1,"bench":"x","runs":[{"kind":"bench"}]})", out,
                              error));
}

// --- grid expansion -----------------------------------------------------------

TEST(GridTest, EmptyGridYieldsOneEmptyCombination) {
  const auto combos = expand_grid({});
  ASSERT_EQ(combos.size(), 1U);
  EXPECT_TRUE(combos[0].empty());
}

TEST(GridTest, ExpansionIsCompleteUniqueAndDeterministic) {
  // Property check: |product| = product of axis sizes, every combination
  // distinct, every value drawn from its axis, order independent of the
  // declaration order of the axes (std::map sorts keys).
  const std::map<std::string, std::vector<std::string>> grid{
      {"c", {"x"}}, {"a", {"1", "2", "3"}}, {"b", {"u", "v"}}};
  const auto combos = expand_grid(grid);
  ASSERT_EQ(combos.size(), 6U);

  std::set<std::string> seen;
  for (const auto& combo : combos) {
    ASSERT_EQ(combo.size(), grid.size());
    std::string id;
    for (const auto& [k, v] : combo) {
      const auto& axis = grid.at(k);
      EXPECT_NE(std::find(axis.begin(), axis.end(), v), axis.end());
      id += k + "=" + v + " ";
    }
    EXPECT_TRUE(seen.insert(id).second) << "duplicate combination " << id;
  }
  // First key ("a") is slowest; last key ("c") has one value everywhere.
  EXPECT_EQ(combos[0].at("a"), "1");
  EXPECT_EQ(combos[1].at("a"), "1");
  EXPECT_EQ(combos[0].at("b"), "u");
  EXPECT_EQ(combos[1].at("b"), "v");
  EXPECT_EQ(combos[5].at("a"), "3");
}

// --- experiment config --------------------------------------------------------

constexpr const char* kConfigText = R"({
  "schema": 1,
  "name": "demo",
  "binary": "bench_demo",
  "key": ["overlap_pct", "threads"],
  "profile": {
    "args": {"resolution": 128, "frames": 6},
    "grid": {"mode": ["closed", "open"]},
    "repetitions": 3
  },
  "smoke": {"args": {"resolution": 64, "smoke": true}, "repetitions": 1},
  "metrics": [
    {"name": "sites", "direction": "equal", "stable": true},
    {"name": "cold_ms", "direction": "lower", "tolerance_pct": 30},
    {"name": "speedup", "direction": "higher", "tolerance_pct": 30},
    {"name": "esca_x_total", "direction": "equal", "stable": true, "record": "obs"}
  ]
})";

TEST(ConfigTest, ParsesAndSmokeInheritsTheFullProfile) {
  ExperimentConfig cfg;
  std::string error;
  ASSERT_TRUE(ExperimentConfig::from_json(kConfigText, cfg, error)) << error;
  EXPECT_EQ(cfg.name, "demo");
  EXPECT_EQ(cfg.binary, "bench_demo");
  EXPECT_EQ(cfg.key, (std::vector<std::string>{"overlap_pct", "threads"}));
  EXPECT_EQ(cfg.profile.args.at("resolution"), "128");  // number -> token
  EXPECT_EQ(cfg.profile.repetitions, 3);
  ASSERT_EQ(cfg.profile.grid.at("mode").size(), 2U);

  // Smoke: overlays resolution/smoke, inherits frames and the mode grid.
  EXPECT_EQ(cfg.smoke.args.at("resolution"), "64");
  EXPECT_EQ(cfg.smoke.args.at("smoke"), "1");  // bool -> token
  EXPECT_EQ(cfg.smoke.args.at("frames"), "6");
  EXPECT_EQ(cfg.smoke.repetitions, 1);
  EXPECT_EQ(cfg.smoke.grid.at("mode"), cfg.profile.grid.at("mode"));

  ASSERT_NE(cfg.rule_for("cold_ms", kRecordBench), nullptr);
  EXPECT_EQ(cfg.rule_for("cold_ms", kRecordBench)->direction, Direction::kLowerIsBetter);
  EXPECT_EQ(cfg.rule_for("esca_x_total", kRecordObs)->record, kRecordObs);
  EXPECT_EQ(cfg.rule_for("esca_x_total", kRecordBench), nullptr);
  EXPECT_EQ(cfg.rule_for("undeclared", kRecordBench), nullptr);
}

TEST(ConfigTest, RejectsBadSchemaDirectionAndEmptyMetrics) {
  ExperimentConfig cfg;
  std::string error;
  EXPECT_FALSE(ExperimentConfig::from_json(R"({"name":"x","binary":"y"})", cfg, error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_FALSE(ExperimentConfig::from_json(
      R"({"schema":1,"name":"x","binary":"y","metrics":[]})", cfg, error));
  EXPECT_FALSE(ExperimentConfig::from_json(
      R"({"schema":1,"name":"x","binary":"y","metrics":[{"name":"m","direction":"sideways"}]})",
      cfg, error));
  EXPECT_FALSE(ExperimentConfig::from_json(
      R"({"schema":1,"name":"x","binary":"y","metrics":[{"name":"m","record":"elsewhere"}]})",
      cfg, error));
}

// --- comparator ---------------------------------------------------------------

ExperimentConfig demo_config() {
  ExperimentConfig cfg;
  std::string error;
  EXPECT_TRUE(ExperimentConfig::from_json(kConfigText, cfg, error)) << error;
  return cfg;
}

BenchHistory demo_history(double cold_ms, double speedup, double sites,
                          double obs_total = 10.0) {
  BenchHistory h;
  h.bench = "demo";
  h.runs.push_back(make_record(
      {{"mode", "closed"}},
      {{"schema", 1}, {"overlap_pct", 50}, {"threads", 2}, {"sites", sites},
       {"cold_ms", cold_ms}, {"speedup", speedup}}));
  h.runs.push_back(make_record({{"mode", "closed"}}, {{"esca_x_total", obs_total}},
                               kRecordObs));
  return h;
}

TEST(CompareTest, IdenticalHistoriesPassWithZeroWarnings) {
  const ExperimentConfig cfg = demo_config();
  const BenchHistory h = demo_history(10.0, 2.0, 4096);
  const CompareReport report = compare(h, h, cfg);
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.failures, 0U);
  EXPECT_EQ(report.warnings, 0U);
  EXPECT_EQ(report.compared, 4U);  // sites, cold_ms, speedup, obs esca_x_total
}

TEST(CompareTest, TwentyPercentStableRegressionFailsTheGate) {
  // The acceptance scenario: a synthetic >= 20 % regression on a stable
  // "equal" metric must produce a nonzero gate (pass() == false) and a
  // verdict table that names the offending metric.
  const ExperimentConfig cfg = demo_config();
  const BenchHistory base = demo_history(10.0, 2.0, 4096);
  const BenchHistory cur = demo_history(10.0, 2.0, 4096 * 1.2);
  const CompareReport report = compare(base, cur, cfg);
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.failures, 1U);
  const std::string table = report.table("t");
  EXPECT_NE(table.find("sites"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
  EXPECT_NE(report.summary().find("FAIL"), std::string::npos);
}

TEST(CompareTest, UnstableRegressionWarnsUnlessStrict) {
  const ExperimentConfig cfg = demo_config();
  const BenchHistory base = demo_history(10.0, 2.0, 4096);
  const BenchHistory cur = demo_history(14.0, 2.0, 4096);  // +40 % > 30 % tol

  const CompareReport lax = compare(base, cur, cfg);
  EXPECT_TRUE(lax.pass());
  EXPECT_EQ(lax.warnings, 1U);

  const CompareReport strict = compare(base, cur, cfg, /*strict=*/true);
  EXPECT_FALSE(strict.pass());
  EXPECT_EQ(strict.failures, 1U);
}

TEST(CompareTest, UnstableChangesOnAnotherHostAreOtherHostEvenWhenStrict) {
  const ExperimentConfig cfg = demo_config();
  BenchHistory base = demo_history(10.0, 2.0, 4096);
  base.meta.host = "vm";
  base.meta.cpus = 1;
  BenchHistory cur = demo_history(14.0, 1.2, 4096 * 1.2);  // both unstable rows move
  cur.meta.host = "vm";
  cur.meta.cpus = 4;

  const CompareReport strict = compare(base, cur, cfg, /*strict=*/true);
  EXPECT_EQ(strict.warnings, 0U);
  EXPECT_EQ(strict.failures, 1U);  // the stable `sites` drift still gates
  std::size_t other_host = 0;
  for (const VerdictRow& row : strict.rows) {
    if (row.verdict == Verdict::kOtherHost) {
      ++other_host;
      EXPECT_FALSE(row.stable);
      EXPECT_FALSE(row.gates);
    }
  }
  EXPECT_EQ(other_host, 2U);  // cold_ms and speedup
  EXPECT_NE(strict.table("t").find("other-host"), std::string::npos);

  // Same host: the same timing drift is a warning again.
  cur.meta.cpus = 1;
  EXPECT_EQ(compare(base, cur, cfg).warnings, 2U);
}

TEST(CompareTest, NoiseToleranceAndImprovementDirections) {
  const ExperimentConfig cfg = demo_config();
  const BenchHistory base = demo_history(10.0, 2.0, 4096);
  // cold_ms -40 % (improvement, lower is better), speedup within 30 % noise.
  const CompareReport report = compare(base, demo_history(6.0, 2.2, 4096), cfg);
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.improvements, 1U);
  EXPECT_EQ(report.warnings, 0U);

  // speedup -40 % — a higher-is-better metric falling is a violation (warn,
  // the rule is unstable).
  const CompareReport worse = compare(base, demo_history(10.0, 1.2, 4096), cfg);
  EXPECT_TRUE(worse.pass());
  EXPECT_EQ(worse.warnings, 1U);
}

TEST(CompareTest, WorseColumnIsNegativeForAnImprovedHigherIsBetterMetric) {
  // The table's percentage column is badness: positive means worse in the
  // metric's own direction, so a higher-is-better metric that rose reads
  // negative.
  const ExperimentConfig cfg = demo_config();
  const CompareReport report =
      compare(demo_history(10.0, 2.0, 4096), demo_history(10.0, 3.0, 4096), cfg);
  const VerdictRow* speedup = nullptr;
  for (const VerdictRow& row : report.rows) {
    if (row.metric == "speedup") speedup = &row;
  }
  ASSERT_NE(speedup, nullptr);
  EXPECT_EQ(speedup->verdict, Verdict::kImproved);
  EXPECT_DOUBLE_EQ(speedup->delta_pct, -50.0);
  const std::string table = report.table("t");
  EXPECT_NE(table.find("Worse %"), std::string::npos);
  EXPECT_NE(table.find("-50.00"), std::string::npos);
}

TEST(CompareTest, StableObsCounterDriftFailsTheGate) {
  const ExperimentConfig cfg = demo_config();
  const CompareReport report =
      compare(demo_history(10.0, 2.0, 4096, 10.0), demo_history(10.0, 2.0, 4096, 11.0), cfg);
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.failures, 1U);
  EXPECT_NE(report.table("t").find("obs:esca_x_total"), std::string::npos);
}

TEST(CompareTest, MissingMetricAndMissingPointVerdicts) {
  const ExperimentConfig cfg = demo_config();
  const BenchHistory base = demo_history(10.0, 2.0, 4096);

  // Current stopped emitting a stable metric -> gating failure.
  BenchHistory gone = demo_history(10.0, 2.0, 4096);
  gone.runs[0].fields.erase("sites");
  const CompareReport missing_cur = compare(base, gone, cfg);
  EXPECT_FALSE(missing_cur.pass());
  EXPECT_NE(missing_cur.table("t").find("MISSING"), std::string::npos);

  // A brand-new point in current only warns — the next --update adopts it.
  BenchHistory extra = demo_history(10.0, 2.0, 4096);
  extra.runs.push_back(make_record(
      {{"mode", "open"}},
      {{"schema", 1}, {"overlap_pct", 50}, {"threads", 4}, {"sites", 4096.0}}));
  const CompareReport missing_base = compare(base, extra, cfg);
  EXPECT_TRUE(missing_base.pass());
  EXPECT_GE(missing_base.warnings, 1U);
}

TEST(CompareTest, DocumentSchemaMismatchIsASingleGatingRow) {
  const ExperimentConfig cfg = demo_config();
  const BenchHistory base = demo_history(10.0, 2.0, 4096);
  BenchHistory other = demo_history(10.0, 2.0, 4096);
  other.schema = kHistorySchema + 1;
  const CompareReport report = compare(base, other, cfg);
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.rows.size(), 1U);
  EXPECT_EQ(report.rows[0].verdict, Verdict::kSchemaMismatch);
}

TEST(CompareTest, RuleMatchingNoRecordFailsTheGate) {
  // A declared metric that no record in either document carries can never
  // be judged. Skipping it would leave a gate that cannot fire, so the rule
  // itself fails — even when it is an unstable (warn-only) metric.
  ExperimentConfig cfg = demo_config();
  MetricRule ghost;
  ghost.name = "esca_ghost_total";
  ghost.direction = Direction::kEqual;
  ghost.record = kRecordObs;
  cfg.metrics.push_back(ghost);
  const BenchHistory h = demo_history(10.0, 2.0, 4096);
  const CompareReport report = compare(h, h, cfg);
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.failures, 1U);
  EXPECT_EQ(report.compared, 4U);
  ASSERT_FALSE(report.rows.empty());
  EXPECT_EQ(report.rows.back().verdict, Verdict::kUnmatchedRule);
  EXPECT_EQ(report.rows.back().metric, "esca_ghost_total");
  EXPECT_NE(report.table("t").find("UNMATCHED-RULE"), std::string::npos);
}

TEST(CompareTest, PointIdentityJoinsOnArgsAndKeyFields) {
  const ExperimentConfig cfg = demo_config();
  const RunRecord bench_rec = make_record(
      {{"mode", "closed"}},
      {{"schema", 1}, {"overlap_pct", 50}, {"threads", 2}, {"sites", 1.0}});
  const std::string id = point_id(bench_rec, cfg);
  EXPECT_NE(id.find("mode=closed"), std::string::npos);
  EXPECT_NE(id.find("overlap_pct=50"), std::string::npos);
  EXPECT_NE(id.find("threads=2"), std::string::npos);

  // Obs records join per invocation: args only, no BENCH key fields.
  const RunRecord obs_rec =
      make_record({{"mode", "closed"}}, {{"esca_x_total", 1.0}}, kRecordObs);
  EXPECT_EQ(point_id(obs_rec, cfg).find("overlap_pct"), std::string::npos);
  EXPECT_NE(point_id(obs_rec, cfg), point_id(bench_rec, cfg));
}

// --- runner helpers -----------------------------------------------------------

TEST(RunnerTest, ShellQuoteSurvivesHostileTokens) {
  EXPECT_EQ(shell_quote("plain"), "'plain'");
  EXPECT_EQ(shell_quote("a b"), "'a b'");
  EXPECT_EQ(shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(shell_quote("$(rm -rf)"), "'$(rm -rf)'");
}

TEST(RunnerTest, CollectMetaStampsProvenance) {
  const HistoryMeta meta = collect_meta("smoke");
  EXPECT_EQ(meta.profile, "smoke");
  EXPECT_FALSE(meta.host.empty());
  EXPECT_GT(meta.cpus, 0);
  // ISO-8601 UTC: YYYY-MM-DDTHH:MM:SSZ.
  ASSERT_EQ(meta.date.size(), 20U);
  EXPECT_EQ(meta.date[4], '-');
  EXPECT_EQ(meta.date[10], 'T');
  EXPECT_EQ(meta.date.back(), 'Z');
  EXPECT_FALSE(meta.git.empty());
}

}  // namespace
}  // namespace esca::xp
