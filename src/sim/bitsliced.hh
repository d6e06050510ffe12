/**
 * @file
 * Benchmark-harness shim for the retired bit-sliced replay engine.
 *
 * Designed machines replay as suffix tables (fsmgen/suffix_table.hh),
 * and no SIMD replay kernel is left. The function below is kept only
 * because the benchmark harness still prints it, and goes with the next
 * change to the benchmark. New code must not use it.
 */

#ifndef AUTOFSM_SIM_BITSLICED_HH
#define AUTOFSM_SIM_BITSLICED_HH

namespace autofsm
{

/** Benchmark-harness shim: false, as no AVX2 replay kernel exists. */
inline bool
bitslicedSimdAvailable()
{
    return false;
}

} // namespace autofsm

#endif // AUTOFSM_SIM_BITSLICED_HH
