/**
 * @file
 * Tests of the Report interface and the JSON substrate: the JSON
 * emitters must produce balanced, escaped, key-complete output on
 * hand-built figure data (no simulation needed).
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/report.hh"
#include "support/json.hh"

namespace autofsm
{
namespace
{

Fig5Benchmark
tinyFig5()
{
    Fig5Benchmark benchmark;
    benchmark.name = "toy";
    benchmark.xscale = {1024.0, 0.125, "xscale"};
    benchmark.gshare.label = "gshare";
    benchmark.gshare.points = {{2048.0, 0.10, "gshare-2^8"},
                               {8192.0, 0.08, "gshare-2^10"}};
    benchmark.lgc.label = "lgc";
    benchmark.customSame.label = "custom-same";
    benchmark.customSame.points = {{1100.0, 0.11, "1 fsm"}};
    benchmark.customDiff.label = "custom-diff";
    benchmark.customDiff.points = {{1100.0, 0.115, "1 fsm"}};
    return benchmark;
}

Fig4Result
tinyFig4()
{
    Fig4Result result;
    AreaEstimate sample;
    sample.states = 4;
    sample.flops = 2;
    sample.terms = 3;
    sample.literals = 6;
    sample.area = 42.5;
    result.samples = {sample};
    result.fit.slope = 10.5;
    result.fit.intercept = 1.25;
    result.fit.r2 = 0.9;
    return result;
}

Fig2Benchmark
tinyFig2()
{
    Fig2Benchmark benchmark;
    benchmark.name = "groff";
    benchmark.sudPoints = {{0.97, 0.6, "sud max=5 dec=1 thr=0.5"}};
    ParetoSeries curve;
    curve.label = "custom w/ hist=2";
    curve.points = {{0.95, 0.7, "thr=0.50"}, {0.99, 0.4, "thr=0.90"}};
    benchmark.fsmCurves = {curve};
    return benchmark;
}

/** Structural sanity: balanced braces/brackets outside strings. */
bool
jsonBalanced(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(JsonWriterTest, EscapesAndNestsCorrectly)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.key("name").value("a\"b\\c\nd");
    json.key("count").value(3);
    json.key("ratio").value(0.5);
    json.key("flag").value(true);
    json.key("items").beginArray().value(1).value(2).endArray();
    json.endObject();
    EXPECT_EQ(out.str(),
              "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":3,"
              "\"ratio\":0.5,\"flag\":true,\"items\":[1,2]}");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginArray();
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(std::numeric_limits<double>::infinity());
    json.endArray();
    EXPECT_EQ(out.str(), "[null,null]");
}

TEST(ReportTest, Fig5JsonIsBalancedAndKeyComplete)
{
    const std::string json = Fig5Report(tinyFig5()).toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"kind\":\"figure5\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\":\"toy\""), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"custom-diff\""), std::string::npos);
    EXPECT_NE(json.find("\"missRate\":0.115"), std::string::npos);
    EXPECT_NE(json.find("\"trained\":[]"), std::string::npos);
}

TEST(ReportTest, Fig4JsonCarriesFitAndSamples)
{
    const std::string json = Fig4Report(tinyFig4()).toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"kind\":\"figure4\""), std::string::npos);
    EXPECT_NE(json.find("\"states\":4"), std::string::npos);
    EXPECT_NE(json.find("\"slope\":10.5"), std::string::npos);
    EXPECT_NE(json.find("\"r2\":0.9"), std::string::npos);
}

TEST(ReportTest, Fig2JsonCarriesCurves)
{
    const std::string json = Fig2Report(tinyFig2()).toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"kind\":\"figure2\""), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"custom w/ hist=2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"accuracy\":0.99"), std::string::npos);
}

} // anonymous namespace
} // namespace autofsm
