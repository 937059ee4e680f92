/** @file Tests for the JSON/CSV result emitters. */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "common/table.h"
#include "exp/result_io.h"
#include "exp/sweep_runner.h"

namespace smartinf::exp {
namespace {

RunRecord
sampleRecord()
{
    RunSpec spec;
    spec.model = train::ModelSpec::gpt2(0.34);
    spec.system.num_devices = 2;
    spec.label = "sample";
    SweepRunner runner;
    return runner.runOne(spec);
}

TEST(ResultIo, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ResultIo, JsonNumberIsRoundTrippable)
{
    EXPECT_EQ(jsonNumber(1.0), "1");
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ResultIo, RecordJsonContainsTheStructuredFields)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordJson(oss, record);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"spec\":"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"sample\""), std::string::npos);
    EXPECT_NE(json.find("\"strategy\":\"BASE\""), std::string::npos);
    EXPECT_NE(json.find("\"num_devices\":2"), std::string::npos);
    EXPECT_NE(json.find("\"spec_hash\":\"" + record.spec.hashHex() + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"iteration_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"traffic\":"), std::string::npos);
    // Balanced braces (cheap well-formedness check without a parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

/** A small serving spec (no engine run needed to inspect its echo). */
RunSpec
servingSpec()
{
    RunSpec spec;
    spec.workload = train::WorkloadKind::Serving;
    spec.model = train::ModelSpec::gpt2(0.34);
    spec.system.num_devices = 2;
    spec.serve.num_requests = 4;
    return spec;
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(ResultIo, RecordSpecIsTheLabelPlusTheCanonicalEcho)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordJson(oss, record);
    const std::string canonical = canonicalSpecJson(record.spec);
    EXPECT_FALSE(contains(canonical, "\"label\""));
    EXPECT_TRUE(contains(oss.str(), "{\"spec\":{\"label\":\"sample\"," +
                                        canonical.substr(1) +
                                        ",\"spec_hash\":"))
        << oss.str();
}

TEST(ResultIo, ServingEchoLeavesTrainingKnobsOut)
{
    const std::string echo = canonicalSpecJson(servingSpec());
    EXPECT_TRUE(contains(echo, "\"serve\":{")) << echo;
    EXPECT_FALSE(contains(echo, "\"train\":")) << echo;
    EXPECT_FALSE(contains(echo, "\"optimizer\"")) << echo;
    EXPECT_FALSE(contains(echo, "\"nic_bandwidth\"")) << echo;
    EXPECT_TRUE(contains(echo, "\"fault\":{\"enabled\":false}")) << echo;
}

TEST(ResultIo, FaultEchoCarriesOnlyArmedCategories)
{
    RunSpec spec = servingSpec();
    spec.fault.enabled = true;
    spec.fault.node_mtbf = 120.0;
    spec.fault.stall_mtbf = 60.0;
    const std::string echo = canonicalSpecJson(spec);
    EXPECT_TRUE(contains(echo, "\"node_mtbf\":120")) << echo;
    EXPECT_TRUE(contains(echo, "\"repair_time\":")) << echo;
    EXPECT_TRUE(contains(echo, "\"stall_mtbf\":60")) << echo;
    EXPECT_TRUE(contains(echo, "\"stall_duration\":")) << echo;
    // Node crashes arm the serving failover path.
    EXPECT_TRUE(contains(echo, "\"retry_limit\":")) << echo;
    EXPECT_TRUE(contains(echo, "\"retry_timeout\":")) << echo;
    // Unarmed categories and training-only knobs stay out.
    EXPECT_FALSE(contains(echo, "csd_")) << echo;
    EXPECT_FALSE(contains(echo, "degrade_")) << echo;
    EXPECT_FALSE(contains(echo, "\"num_iterations\"")) << echo;
    EXPECT_FALSE(contains(echo, "\"checkpoint_interval\"")) << echo;
}

TEST(ResultIo, TraceDrivenEchoCarriesItsArrivals)
{
    RunSpec spec = servingSpec();
    spec.serve.trace = {0.0, 0.5, 2.25};
    const std::string echo = canonicalSpecJson(spec);
    EXPECT_TRUE(contains(echo, "\"trace\":[0,0.5,2.25]")) << echo;
    EXPECT_TRUE(contains(echo, "\"num_requests\":3")) << echo;
    EXPECT_FALSE(contains(echo, "\"arrival_rate\"")) << echo;
    EXPECT_FALSE(contains(echo, "\"modulation\"")) << echo;
}

TEST(ResultIo, ClosedLoopEchoHasNoArrivalRate)
{
    RunSpec spec = servingSpec();
    spec.serve.client_mode = serve::ClientMode::ClosedLoop;
    spec.serve.concurrency = 3;
    const std::string echo = canonicalSpecJson(spec);
    EXPECT_TRUE(contains(echo, "\"concurrency\":3")) << echo;
    EXPECT_FALSE(contains(echo, "\"arrival_rate\"")) << echo;
    EXPECT_FALSE(contains(echo, "\"trace\"")) << echo;
}

TEST(ResultIo, NonFiniteKnobsKeepTheirOwnHash)
{
    // jsonNumber writes every non-finite value as null; the spec echo
    // spells them out so they neither alias each other nor vanish.
    RunSpec base = servingSpec();
    base.fault.enabled = true;
    base.fault.node_mtbf = 120.0;
    RunSpec forever = base;
    forever.fault.retry_timeout = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(forever.fault.validate().empty());
    EXPECT_NE(base.hash(), forever.hash());
    EXPECT_TRUE(contains(canonicalSpecJson(forever),
                         "\"retry_timeout\":\"inf\""));

    // Most calibration constants are unvalidated, so every non-finite
    // value is an accepted, distinct spec.
    std::vector<std::uint64_t> hashes;
    for (const double v : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
        RunSpec spec = base;
        spec.system.calib.gpu_compress = v;
        EXPECT_TRUE(spec.system.validate().empty());
        hashes.push_back(spec.hash());
    }
    EXPECT_NE(hashes[0], hashes[1]);
    EXPECT_NE(hashes[0], hashes[2]);
    EXPECT_NE(hashes[1], hashes[2]);
}

TEST(ResultIo, RecordsJsonIsAnArray)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordsJson(oss, {record, record});
    const std::string json = oss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("},{"), std::string::npos);
}

TEST(ResultIo, TableJsonKeepsTitleHeaderRows)
{
    Table table("My Title");
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    table.addRow({"3", "4"});
    std::ostringstream oss;
    writeTableJson(oss, table);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"title\":\"My Title\""), std::string::npos);
    EXPECT_NE(json.find("\"header\":[\"a\",\"b\"]"), std::string::npos);
    EXPECT_NE(json.find("[\"1\",\"2\"],[\"3\",\"4\"]"), std::string::npos);
}

TEST(ResultIo, CsvHasOneLinePerRecordPlusHeader)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordsCsv(oss, {record, record, record});
    std::istringstream lines(oss.str());
    std::string line;
    std::size_t count = 0;
    std::getline(lines, line);
    EXPECT_NE(line.find("label,workload,model,strategy"), std::string::npos);
    const auto columns =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
        1;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')) +
                      1,
                  columns);
    }
    EXPECT_EQ(count, 3u);
}

} // namespace
} // namespace smartinf::exp
