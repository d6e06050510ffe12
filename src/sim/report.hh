/**
 * @file
 * Reporting of the experiment results.
 *
 * A `Report` wraps one figure's data and renders it two ways: the
 * historical fixed-width text tables (renderText) and a machine-diffable
 * JSON document (renderJson / toJson), so bench output can be consumed by
 * scripts and compared across runs.
 */

#ifndef AUTOFSM_SIM_REPORT_HH
#define AUTOFSM_SIM_REPORT_HH

#include <iosfwd>
#include <string>
#include <utility>

#include "sim/figure2.hh"
#include "sim/figure4.hh"
#include "sim/figure5.hh"

namespace autofsm
{

/** Dual-format (text + JSON) renderer of one experiment result. */
class Report
{
  public:
    virtual ~Report() = default;

    /** Short machine-readable identifier, e.g. "figure5". */
    virtual std::string kind() const = 0;

    /** The historical fixed-width table rendering. */
    virtual void renderText(std::ostream &out) const = 0;

    /** One self-contained JSON object describing the result. */
    virtual void renderJson(std::ostream &out) const = 0;

    /** renderText into a string. */
    std::string toText() const;

    /** renderJson into a string. */
    std::string toJson() const;
};

/** Figure 2 (accuracy/coverage) report for one benchmark. */
class Fig2Report final : public Report
{
  public:
    explicit Fig2Report(Fig2Benchmark data) : data_(std::move(data)) {}

    std::string kind() const override { return "figure2"; }
    void renderText(std::ostream &out) const override;
    void renderJson(std::ostream &out) const override;

    const Fig2Benchmark &data() const { return data_; }

  private:
    Fig2Benchmark data_;
};

/** Figure 4 (area vs states scatter + fit) report. */
class Fig4Report final : public Report
{
  public:
    explicit Fig4Report(Fig4Result data) : data_(std::move(data)) {}

    std::string kind() const override { return "figure4"; }
    void renderText(std::ostream &out) const override;
    void renderJson(std::ostream &out) const override;

    const Fig4Result &data() const { return data_; }

  private:
    Fig4Result data_;
};

/** Figure 5 (miss rate vs area) report for one benchmark. */
class Fig5Report final : public Report
{
  public:
    explicit Fig5Report(Fig5Benchmark data) : data_(std::move(data)) {}

    std::string kind() const override { return "figure5"; }
    void renderText(std::ostream &out) const override;
    void renderJson(std::ostream &out) const override;

    const Fig5Benchmark &data() const { return data_; }

  private:
    Fig5Benchmark data_;
};

} // namespace autofsm

#endif // AUTOFSM_SIM_REPORT_HH
