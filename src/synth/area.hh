/**
 * @file
 * Gate-level area cost model (substitute for the paper's Synopsys runs).
 *
 * Section 7.4 synthesizes a sample of generated FSMs to establish that
 * area is (boundedly) linear in state count, then uses the fitted line
 * for all design-space numbers. We reproduce the *mechanism*: encode the
 * states in binary, derive the next-state and output logic as truth
 * tables, minimize them with the logicmin substrate, and charge costs
 * per flip-flop, product term and literal. Highly regular machines
 * minimize to fewer terms and fall below the linear trend, exactly the
 * outlier behavior Figure 4 reports.
 */

#ifndef AUTOFSM_SYNTH_AREA_HH
#define AUTOFSM_SYNTH_AREA_HH

#include <vector>

#include "automata/dfa.hh"
#include "logicmin/truth_table.hh"
#include "support/stats.hh"

namespace autofsm
{

/** Technology-ish constants, in abstract gate-equivalent units. */
struct AreaCosts
{
    double flop = 8.0;     ///< per state-register bit
    double term = 1.0;     ///< per product term (AND gate input column)
    double literal = 0.25; ///< per literal within a term
    double output = 2.0;   ///< per output driver
    /** Per-bit cost of SRAM-backed prediction tables (Figure 5 axes). */
    double sramBit = 1.5;
    /** Per-bit cost of fully-associative tag match (custom entries). */
    double camBit = 3.0;
};

/** Breakdown of one FSM's estimated implementation cost. */
struct AreaEstimate
{
    int states = 0;
    int flops = 0;     ///< state register width
    int terms = 0;     ///< product terms across all logic functions
    int literals = 0;  ///< literals across all logic functions
    double area = 0.0; ///< weighted total
};

/**
 * The logic functions of @p fsm under binary state encoding: for
 * k = ceilLog2(numStates) state bits, the k next-state functions of
 * (state code in bits [0, k), input in bit k), then the Moore output
 * function of the state code. Unused codes are don't-cares. Empty for a
 * machine of at most one state.
 */
std::vector<TruthTable> fsmLogicTables(const Dfa &fsm);

/**
 * Estimate the implementation area of @p fsm by performing the
 * binary-encoding + two-level-minimization synthesis described above.
 * Each call is observed in the histogram `autofsm_synth_area_millis`.
 */
AreaEstimate estimateFsmArea(const Dfa &fsm, const AreaCosts &costs = {});

/** Area of a RAM table of @p bits total storage bits. */
double tableArea(double bits, const AreaCosts &costs = {});

/**
 * Fit the linear states -> area trend over a sample of machines, as the
 * paper does in Figure 4 to avoid synthesizing every candidate.
 */
LineFit fitAreaLine(const std::vector<AreaEstimate> &samples);

} // namespace autofsm

#endif // AUTOFSM_SYNTH_AREA_HH
