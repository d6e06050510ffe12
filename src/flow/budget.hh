/**
 * @file
 * Resource budgets and the structured error taxonomy of the design flow.
 *
 * Subset construction can explode exponentially and minimization cost
 * varies wildly per benchmark (Sherwood & Calder, ISCA 2001, §4), so a
 * production flow must be able to *bound* every stage instead of stalling
 * or dying on a pathological input. `FlowBudget` carries the per-stage
 * limits inside `FsmDesignOptions`; exceeding one raises a `FlowError`
 * with a machine-readable {stage, kind, detail} triple that the
 * degradation ladder in `DesignFlow` and the retry policy in
 * `BatchDesigner` classify, instead of an ad-hoc `std::runtime_error`.
 *
 * Header-only on purpose: the enforcement points live below the flow in
 * the layering (logicmin's cover loop, automata's subset construction),
 * and a header-only taxonomy lets them throw the same typed error without
 * a link dependency on the flow library.
 */

#ifndef AUTOFSM_FLOW_BUDGET_HH
#define AUTOFSM_FLOW_BUDGET_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace autofsm
{

/** Machine-readable classification of a design-flow failure. */
enum class ErrorKind
{
    BudgetExceeded,   ///< a configured resource budget was hit
    DeadlineExceeded, ///< the wall-clock deadline passed
    InvalidInput,     ///< malformed model / trace / options
    Injected,         ///< raised by a fault-injection site
    Internal,         ///< unexpected invariant failure
};

/** Stable lower-case name of @p kind (used in reports and metrics). */
inline const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::BudgetExceeded: return "budget-exceeded";
      case ErrorKind::DeadlineExceeded: return "deadline-exceeded";
      case ErrorKind::InvalidInput: return "invalid-input";
      case ErrorKind::Injected: return "injected";
      case ErrorKind::Internal: return "internal";
    }
    return "?";
}

/**
 * True when a failure of @p kind may succeed on a retry with an escalated
 * budget: resource and deadline exhaustion respond to bigger budgets, and
 * injected faults model transient infrastructure errors. Invalid input
 * and internal invariant failures are terminal — retrying cannot help.
 */
inline bool
errorKindRetryable(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::BudgetExceeded:
      case ErrorKind::DeadlineExceeded:
      case ErrorKind::Injected:
        return true;
      case ErrorKind::InvalidInput:
      case ErrorKind::Internal:
        return false;
    }
    return false;
}

/** Structured design-flow failure: which stage, what kind, and detail. */
class FlowError : public std::runtime_error
{
  public:
    FlowError(std::string stage, ErrorKind kind, std::string detail)
        : std::runtime_error("flow[" + stage + "] " +
                             errorKindName(kind) + ": " + detail),
          stage_(std::move(stage)), kind_(kind), detail_(std::move(detail))
    {
    }

    /** Stage name ("minimize", "subset", ...; see flowStageName). */
    const std::string &stage() const { return stage_; }

    ErrorKind kind() const { return kind_; }

    const std::string &detail() const { return detail_; }

  private:
    std::string stage_;
    ErrorKind kind_;
    std::string detail_;
};

/**
 * Per-stage resource budgets of one design-flow run. Every limit treats
 * zero as "unlimited", which is the default: a default-constructed
 * budget changes nothing about the flow's behavior or output.
 */
struct FlowBudget
{
    /** Wall-clock deadline for the whole run, milliseconds. */
    double deadlineMillis = 0.0;
    /** Max states of the cover's Thompson NFA, in closed form
     *  (checkThompsonStates; the flow never builds the NFA). */
    int maxNfaStates = 0;
    /** Max DFA states minted during subset construction (checked inside
     *  the construction loop, so an exploding subset stops early). */
    int maxDfaStates = 0;
    /** Max EXPAND/IRREDUNDANT/REDUCE iterations of the espresso loop. */
    int maxEspressoIterations = 0;
    /** Max ON+DC minterms a minimization engine will accept. */
    size_t maxMinterms = 0;

    /**
     * Enforce maxNfaStates before subset construction, given the
     * @p thompson_states of the cover's Thompson NFA in closed form:
     * 2k(N+1) + 2 for k cubes over N history bits (thompsonStateCount).
     */
    void
    checkThompsonStates(int64_t thompson_states) const
    {
        if (maxNfaStates > 0 && thompson_states > maxNfaStates) {
            throw FlowError("subset", ErrorKind::BudgetExceeded,
                            std::to_string(thompson_states) +
                                " NFA states > budget " +
                                std::to_string(maxNfaStates));
        }
    }

    /** True when every limit is "unlimited" (the default). */
    bool
    unlimited() const
    {
        return deadlineMillis <= 0.0 && maxNfaStates <= 0 &&
            maxDfaStates <= 0 && maxEspressoIterations <= 0 &&
            maxMinterms == 0;
    }

    /**
     * The budget a retry attempt runs under: every finite limit scaled
     * up by @p factor (>= 1), unlimited limits staying unlimited.
     */
    FlowBudget
    escalated(double factor) const
    {
        FlowBudget out = *this;
        if (factor < 1.0)
            factor = 1.0;
        auto scale = [factor](auto limit) {
            using T = decltype(limit);
            return limit > T{0}
                ? static_cast<T>(static_cast<double>(limit) * factor)
                : limit;
        };
        out.deadlineMillis = scale(deadlineMillis);
        out.maxNfaStates = scale(maxNfaStates);
        out.maxDfaStates = scale(maxDfaStates);
        out.maxEspressoIterations = scale(maxEspressoIterations);
        out.maxMinterms = scale(maxMinterms);
        return out;
    }
};

/**
 * Wall-clock deadline of one flow run. Constructing with a non-positive
 * limit disables the deadline entirely — no clock is ever read — so the
 * default budget stays free.
 */
class Deadline
{
  public:
    explicit Deadline(double limit_millis) : limit_(limit_millis)
    {
        if (limit_ > 0.0)
            start_ = std::chrono::steady_clock::now();
    }

    /** @throws FlowError{stage, DeadlineExceeded} once the limit passed. */
    void
    check(const char *stage) const
    {
        if (limit_ <= 0.0)
            return;
        const double elapsed =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (elapsed > limit_) {
            throw FlowError(stage, ErrorKind::DeadlineExceeded,
                            "elapsed " + std::to_string(elapsed) +
                                " ms > deadline " +
                                std::to_string(limit_) + " ms");
        }
    }

  private:
    double limit_;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace autofsm

#endif // AUTOFSM_FLOW_BUDGET_HH
