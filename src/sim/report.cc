#include "sim/report.hh"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/json.hh"

namespace autofsm
{

namespace
{

void
printSeriesHeader(std::ostream &out, const std::string &title)
{
    out << "-- " << title << " --\n";
}

void
jsonParetoPoints(JsonWriter &json, const std::vector<ParetoPoint> &points)
{
    json.beginArray();
    for (const auto &point : points) {
        json.beginObject();
        json.key("label").value(point.label);
        json.key("accuracy").value(point.accuracy);
        json.key("coverage").value(point.coverage);
        json.endObject();
    }
    json.endArray();
}

void
jsonAreaMissPoint(JsonWriter &json, const AreaMissPoint &point)
{
    json.beginObject();
    json.key("label").value(point.label);
    json.key("area").value(point.area);
    json.key("missRate").value(point.missRate);
    json.endObject();
}

void
jsonAreaMissSeries(JsonWriter &json, const AreaMissSeries &series)
{
    json.beginObject();
    json.key("label").value(series.label);
    json.key("points").beginArray();
    for (const auto &point : series.points)
        jsonAreaMissPoint(json, point);
    json.endArray();
    json.endObject();
}

} // anonymous namespace

std::string
Report::toText() const
{
    std::ostringstream out;
    renderText(out);
    return out.str();
}

std::string
Report::toJson() const
{
    std::ostringstream out;
    renderJson(out);
    return out.str();
}

void
Fig2Report::renderText(std::ostream &out) const
{
    const Fig2Benchmark &benchmark = data_;
    out << "== Figure 2: value prediction confidence [" << benchmark.name
        << "] ==\n";
    printSeriesHeader(out, "saturating up/down counters");
    out << std::fixed << std::setprecision(2);
    out << std::setw(34) << "config" << std::setw(12) << "accuracy"
        << std::setw(12) << "coverage" << "\n";
    for (const auto &point : benchmark.sudPoints) {
        out << std::setw(34) << point.label << std::setw(11)
            << point.accuracy * 100.0 << "%" << std::setw(11)
            << point.coverage * 100.0 << "%\n";
    }
    for (const auto &series : benchmark.fsmCurves) {
        printSeriesHeader(out, series.label);
        out << std::setw(34) << "threshold" << std::setw(12) << "accuracy"
            << std::setw(12) << "coverage" << "\n";
        for (const auto &point : series.points) {
            out << std::setw(34) << point.label << std::setw(11)
                << point.accuracy * 100.0 << "%" << std::setw(11)
                << point.coverage * 100.0 << "%\n";
        }
    }
    out << "\n";
}

void
Fig2Report::renderJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginObject();
    json.key("kind").value(kind());
    json.key("benchmark").value(data_.name);
    json.key("sud");
    jsonParetoPoints(json, data_.sudPoints);
    json.key("fsmCurves").beginArray();
    for (const auto &series : data_.fsmCurves) {
        json.beginObject();
        json.key("label").value(series.label);
        json.key("points");
        jsonParetoPoints(json, series.points);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
Fig4Report::renderText(std::ostream &out) const
{
    const Fig4Result &result = data_;
    out << "== Figure 4: area vs number of states ==\n";
    out << std::setw(10) << "states" << std::setw(10) << "flops"
        << std::setw(10) << "terms" << std::setw(10) << "literals"
        << std::setw(12) << "area" << "\n";
    out << std::fixed << std::setprecision(1);
    for (const auto &sample : result.samples) {
        out << std::setw(10) << sample.states << std::setw(10)
            << sample.flops << std::setw(10) << sample.terms
            << std::setw(10) << sample.literals << std::setw(12)
            << sample.area << "\n";
    }
    out << std::setprecision(3);
    out << "linear fit: area = " << result.fit.slope << " * states + "
        << result.fit.intercept << "  (r^2 = " << result.fit.r2 << ")\n\n";
}

void
Fig4Report::renderJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginObject();
    json.key("kind").value(kind());
    json.key("samples").beginArray();
    for (const auto &sample : data_.samples) {
        json.beginObject();
        json.key("states").value(sample.states);
        json.key("flops").value(sample.flops);
        json.key("terms").value(sample.terms);
        json.key("literals").value(sample.literals);
        json.key("area").value(sample.area);
        json.endObject();
    }
    json.endArray();
    json.key("fit").beginObject();
    json.key("slope").value(data_.fit.slope);
    json.key("intercept").value(data_.fit.intercept);
    json.key("r2").value(data_.fit.r2);
    json.endObject();
    json.endObject();
}

void
Fig5Report::renderText(std::ostream &out) const
{
    const Fig5Benchmark &benchmark = data_;
    out << "== Figure 5: misprediction rate vs estimated area ["
        << benchmark.name << "] ==\n";
    out << std::fixed << std::setprecision(2);
    out << std::setw(16) << "series" << std::setw(18) << "config"
        << std::setw(12) << "area" << std::setw(12) << "miss" << "\n";

    auto row = [&out](const std::string &series, const AreaMissPoint &p) {
        out << std::setw(16) << series << std::setw(18) << p.label
            << std::setw(12) << std::setprecision(0) << p.area
            << std::setw(11) << std::setprecision(2) << p.missRate * 100.0
            << "%\n";
    };

    row("xscale", benchmark.xscale);
    for (const auto &p : benchmark.gshare.points)
        row(benchmark.gshare.label, p);
    for (const auto &p : benchmark.lgc.points)
        row(benchmark.lgc.label, p);
    for (const auto &p : benchmark.customSame.points)
        row(benchmark.customSame.label, p);
    for (const auto &p : benchmark.customDiff.points)
        row(benchmark.customDiff.label, p);
    out << "\n";
}

void
Fig5Report::renderJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginObject();
    json.key("kind").value(kind());
    json.key("benchmark").value(data_.name);
    json.key("xscale");
    jsonAreaMissPoint(json, data_.xscale);
    json.key("series").beginArray();
    jsonAreaMissSeries(json, data_.gshare);
    jsonAreaMissSeries(json, data_.lgc);
    jsonAreaMissSeries(json, data_.customSame);
    jsonAreaMissSeries(json, data_.customDiff);
    json.endArray();
    // Per-branch design pipeline observations (states + stage timings)
    // for the machines behind the custom curves.
    json.key("trained").beginArray();
    for (const auto &branch : data_.trained) {
        json.beginObject();
        json.key("pc").value(branch.pc);
        json.key("baselineMisses").value(branch.baselineMisses);
        json.key("states").value(branch.design.statesFinal);
        json.key("designMillis").value(branch.trace.totalMillis());
        json.key("stages").beginArray();
        for (const auto &stage : branch.trace.stages()) {
            json.beginObject();
            json.key("stage").value(flowStageName(stage.stage));
            json.key("millis").value(stage.millis);
            json.key("metric").value(stage.metric);
            json.key("metricName").value(stage.metricName);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

} // namespace autofsm
